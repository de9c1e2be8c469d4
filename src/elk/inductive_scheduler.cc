#include "elk/inductive_scheduler.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "cost/hbm_cost.h"
#include "util/logging.h"

namespace elk::compiler {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Weighted-cost starting index on a preload front.
int
policy_start(const std::vector<plan::PreloadPlan>& front, double weight)
{
    int best = 0;
    double best_cost = front[0].distribute_time +
                       weight * front[0].delivery_overhead_time;
    for (int i = 1; i < static_cast<int>(front.size()); ++i) {
        double cost = front[i].distribute_time +
                      weight * front[i].delivery_overhead_time;
        if (cost < best_cost) {
            best_cost = cost;
            best = i;
        }
    }
    return best;
}

}  // namespace

double
InductiveScheduler::preload_duration(int op_id,
                                     const plan::PreloadPlan& preload) const
{
    const plan::PlanContext& ctx = library_.context();
    const graph::Operator& op = library_.graph().op(op_id);
    if (op.hbm_bytes() == 0) {
        return 0.0;
    }
    double dram = cost::hbm_load_time(
        static_cast<double>(op.hbm_bytes()) * preload.dram_fraction,
        *ctx.cfg);
    double delivery_capacity =
        ctx.traffic->hbm_delivery_capacity() * ctx.cfg->num_chips;
    double delivery = preload.noc_delivery_bytes / delivery_capacity;
    return std::max(dram, delivery);
}

std::optional<ExecutionPlan>
InductiveScheduler::schedule_in_order(const ScheduleOptions& opts) const
{
    std::vector<int> order(library_.graph().size());
    for (size_t i = 0; i < order.size(); ++i) {
        order[i] = static_cast<int>(i);
    }
    return schedule(order, opts);
}

std::optional<ExecutionPlan>
InductiveScheduler::schedule(const std::vector<int>& preload_order,
                             const ScheduleOptions& opts) const
{
    const graph::Graph& graph = library_.graph();
    const plan::PlanContext& ctx = library_.context();
    const uint64_t budget = ctx.sram_budget();
    const int n = graph.size();
    util::check(static_cast<int>(preload_order.size()) == n,
                "schedule: preload order must cover all operators");

    // Optional truncation for cheap candidate-order scoring (§4.4).
    const int m =
        opts.limit_ops > 0 ? std::min(opts.limit_ops, n) : n;
    std::vector<int> order;
    order.reserve(m);
    for (int op : preload_order) {
        if (op < m) {
            order.push_back(op);
        }
    }

    // Position of each operator in the preload order.
    std::vector<int> pos(m);
    for (int r = 0; r < m; ++r) {
        pos[order[r]] = r;
    }
    // lo[i]: minimum frontier before execute(i) — every operator that
    // executes at or before i must already be issued.
    std::vector<int> lo(m);
    int running = -1;
    for (int i = 0; i < m; ++i) {
        running = std::max(running, pos[i]);
        lo[i] = running + 1;
    }

    // first_above[i]: smallest position holding an operator > i (m
    // when none). Positions before it never hold a live operator of
    // step i, and every position >= lo[i] does.
    std::vector<int> first_above(m, m);
    for (int i = m - 2; i >= 0; --i) {
        first_above[i] = std::min(first_above[i + 1], pos[i + 1]);
    }

    // --- backward induction state ---
    std::vector<int> exec_choice(m, 0);
    std::vector<int> preload_choice(m, 0);  // tightening-only floor
    std::vector<double> t_exe_start(m, 0.0);
    // By position. Step i writes its ALAP chain over [lo[i], F_{i+1})
    // here; only [F_i, F_{i+1}) is committed, the rest is rewritten by
    // later steps and the final pass.
    std::vector<double> t_pre_start(m, 0.0);
    std::vector<int> slot_of_pos(m, 0);
    // Per committed op: its preload front (resolved once, from its
    // fixed exec plan) and the duration of its current preload_choice.
    std::vector<const std::vector<plan::PreloadPlan>*> pre_front(m);
    std::vector<double> pre_duration(m, 0.0);
    int frontier_next = m;  // F_{i+1} of the step being processed

    // ALAP preload starts for positions [from, to), chained backward
    // from the committed start at position `to`.
    auto chain_alap = [&](int from, int to) {
        double next_start = to < m ? t_pre_start[to] : kInf;
        for (int r = to - 1; r >= from; --r) {
            int j = order[r];
            next_start = std::min(next_start, t_exe_start[j]) -
                         pre_duration[j];
            t_pre_start[r] = next_start;
        }
    };

    // Scratch buffers reused across steps.
    std::vector<int> live, live_exec, live_floor;
    std::vector<int> own_anchor;

    for (int i = m - 1; i >= 0; --i) {
        if (lo[i] > frontier_next) {
            return std::nullopt;  // order forces issue after own execute
        }

        // Live set at frontier lo[i]: issued before execute(i), not yet
        // executed, in ascending position order. Each larger frontier
        // appends exactly the next position. Live ops are committed, so
        // their preload_choice (which starts at their policy anchor and
        // only tightens) is the allocator's floor.
        //
        // floor_space is the footprint with op i at its fastest exec
        // plan and every live op at its floor. While it fits the
        // budget, the allocator would return exactly that selection
        // without a downgrade, so the frontier needs no allocator call.
        const auto& exec_front = library_.exec_plans(i);
        uint64_t floor_space = exec_front[0].exec_space;
        live.clear();
        live_exec.clear();
        live_floor.clear();
        auto push_live = [&](int j) {
            live.push_back(j);
            live_exec.push_back(exec_choice[j]);
            live_floor.push_back(preload_choice[j]);
            floor_space += (*pre_front[j])[preload_choice[j]].preload_space;
        };
        for (int r = first_above[i]; r < lo[i]; ++r) {
            if (order[r] > i) {
                push_live(order[r]);
            }
        }
        // The chain does not depend on the candidate frontier: the
        // next preload after frontier f starts at t_pre_start[f].
        chain_alap(lo[i], frontier_next);
        const double exec_end_bound = i + 1 < m ? t_exe_start[i + 1] : 0.0;
        // Policy anchor of op i per exec plan the allocator picks.
        own_anchor.assign(exec_front.size(), -1);

        double best_start = -kInf;
        int best_frontier = -1;
        AllocationChoice best_alloc;

        for (int frontier = lo[i]; frontier <= frontier_next; ++frontier) {
            if (frontier > lo[i]) {
                push_live(order[frontier - 1]);
            }
            if (static_cast<int>(live.size()) > opts.max_window) {
                break;
            }
            // A floor fit is feasible with exec plan 0 and every live
            // op at its floor. Its preload_idx stays empty, so the
            // commit below tightens nothing.
            AllocationChoice alloc;
            if (floor_space <= budget) {
                alloc.feasible = true;
                alloc.exec_time = exec_front[0].exec_time;
            } else {
                alloc = allocator_.allocate(i, live, live_exec, live_floor,
                                            budget);
                if (!alloc.feasible) {
                    break;  // larger frontiers only add live operators
                }
            }

            double next_start = frontier < m ? t_pre_start[frontier] : kInf;
            double exec_end = std::min(exec_end_bound, next_start);
            // The operator's own data-distribution phase runs on its
            // execute critical path; price it with the preload plan
            // this policy would anchor (later steps may still tighten
            // it under memory pressure).
            const auto& own_cand_front =
                library_.preload_plans(i, alloc.exec_idx);
            int& anchor = own_anchor[alloc.exec_idx];
            if (anchor < 0) {
                anchor = policy_start(own_cand_front, opts.overhead_weight);
            }
            double cand_start =
                exec_end -
                (alloc.exec_time + own_cand_front[anchor].distribute_time);
            // Ties favor the larger frontier: preloading further ahead
            // is free when memory allows and absorbs timing jitter the
            // estimate cannot see (e.g., per-op HBM access latency).
            if (cand_start >= best_start) {
                best_start = cand_start;
                best_frontier = frontier;
                best_alloc = std::move(alloc);
            }
        }

        if (best_frontier < 0) {
            return std::nullopt;  // no feasible frontier: invalid order
        }

        // Commit the winning frontier.
        exec_choice[i] = best_alloc.exec_idx;
        pre_front[i] = &library_.preload_plans(i, exec_choice[i]);
        preload_choice[i] = own_anchor[exec_choice[i]];
        pre_duration[i] =
            preload_duration(i, (*pre_front[i])[preload_choice[i]]);
        t_exe_start[i] = best_start;
        // The winner's live set is the first preload_idx.size() entries
        // of the largest one built (none for a floor fit).
        for (size_t jj = 0; jj < best_alloc.preload_idx.size(); ++jj) {
            int j = live[jj];
            if (best_alloc.preload_idx[jj] > preload_choice[j]) {
                preload_choice[j] = best_alloc.preload_idx[jj];
                pre_duration[j] =
                    preload_duration(j, (*pre_front[j])[preload_choice[j]]);
            }
        }
        for (int r = best_frontier; r < frontier_next; ++r) {
            slot_of_pos[r] = i + 1;
        }
        frontier_next = best_frontier;
    }

    // Positions before the final frontier are issued before execute(0)
    // (slot 0).
    chain_alap(0, frontier_next);

    // --- assemble the plan ---
    ExecutionPlan plan;
    plan.ops.resize(m);
    for (int i = 0; i < m; ++i) {
        OpSchedule& sched = plan.ops[i];
        sched.op_id = i;
        sched.exec = library_.exec_plans(i)[exec_choice[i]];
        const auto& front = *pre_front[i];
        sched.preload = front[std::min<int>(
            preload_choice[i], static_cast<int>(front.size()) - 1)];
        sched.est_exec_time = sched.exec.exec_time;
        sched.est_preload_time = preload_duration(i, sched.preload);
    }
    plan.preload_order = order;
    plan.issue_slot.resize(m);
    for (int r = 0; r < m; ++r) {
        plan.issue_slot[r] = slot_of_pos[r];
    }
    double t_begin = m > 0 ? std::min(t_exe_start[0], t_pre_start[0]) : 0.0;
    plan.est_total_time = -t_begin;
    return plan;
}

}  // namespace elk::compiler
