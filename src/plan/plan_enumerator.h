/**
 * @file
 * Enumeration of execute-state and preload-state partition plans for a
 * single operator (paper §4.3, "intra-operator tradeoffs"), with the
 * per-plan metric computation the scheduler and allocator consume.
 */
#ifndef ELK_PLAN_PLAN_ENUMERATOR_H
#define ELK_PLAN_PLAN_ENUMERATOR_H

#include <vector>

#include "cost/exec_cost.h"
#include "graph/op.h"
#include "hw/chip_config.h"
#include "hw/traffic.h"
#include "plan/partition_plan.h"
#include "util/thread_pool.h"

namespace elk::plan {

/// Everything plan metric computation needs about the target.
struct PlanContext {
    const hw::ChipConfig* cfg = nullptr;
    const hw::TrafficModel* traffic = nullptr;
    const cost::ExecCostModel* exec_cost = nullptr;
    /// Optional owner of exec_cost: a const-safe shared handle that
    /// keeps the model alive across CompileState copies and worker
    /// threads. Set it with set_cost_model(); contexts built around a
    /// caller-owned model may leave it empty and fill exec_cost alone.
    cost::ExecCostHandle exec_cost_owner;

    /// Points exec_cost at @p handle and retains ownership of it.
    void
    set_cost_model(cost::ExecCostHandle handle)
    {
        exec_cost_owner = std::move(handle);
        exec_cost = exec_cost_owner.get();
    }

    /// SRAM budget per core available to the compiler.
    uint64_t sram_budget() const { return cfg->usable_sram_per_core(); }
};

/**
 * Enumerates Pareto-optimal execute-state plans of @p op: every
 * combination of partition factors and residency factors that fits the
 * chip, reduced to the (exec_space, time_cost) Pareto front, sorted
 * fastest-first (descending memory). Never empty for a well-formed
 * operator — at minimum the most-partitioned plan survives.
 *
 * One streaming pass: the partition half of the metrics is computed
 * once per (parts_rows, parts_cols, parts_k), the replication half
 * once per residency pair, and each feasible candidate is offered as
 * a compact (memory, time, factors) record to a ParetoSkyline; only
 * the survivors are expanded into full ExecPlans. The result equals
 * pareto_front over every feasible plan, bit for bit. Exact ties are
 * the exception the skyline cannot settle alone: pareto_front keeps
 * whichever of two plans with identical (memory, time) its std::sort
 * puts first. When such a twin is on the front (it happens on
 * elementwise and softmax operators), the call runs pareto_front over
 * the compact records in search order, which sorts them exactly as it
 * would sort the full plans and so keeps the same twin.
 */
std::vector<ExecPlan> enumerate_exec_plans(const graph::Operator& op,
                                           const PlanContext& ctx);

/**
 * Enumerates the execute-state Pareto front of every operator in
 * @p ops, optionally fanning the per-operator enumerations out over
 * @p pool (nullptr = serial). Result i is the front of ops[i];
 * identical to calling enumerate_exec_plans per operator, in any
 * pool configuration (per-slot writes, no cross-operator state).
 */
std::vector<std::vector<ExecPlan>> enumerate_exec_fronts(
    const std::vector<const graph::Operator*>& ops, const PlanContext& ctx,
    util::ThreadPool* pool = nullptr);

/**
 * Enumerates Pareto-optimal preload-state plans for a preloaded @p op
 * whose execute-state plan is @p exec: gamma sweeps from the full
 * execute-state residency (MaxPreload, zero distribution) down to
 * 1/group_w (MinPreload, maximum distribution), paper §4.3's
 * 1, 1/2, 1/4 example. Sorted by descending preload space.
 */
std::vector<PreloadPlan> enumerate_preload_plans(const graph::Operator& op,
                                                 const ExecPlan& exec,
                                                 const PlanContext& ctx);

/**
 * Index (>= @p floor) of the preload plan with the lowest combined
 * time cost (distribution + delivery-replication fabric overhead) on
 * a front sorted by descending space — the broadcast/distribution
 * balance point where allocation walks start.
 */
int min_time_cost_index(const std::vector<PreloadPlan>& front,
                        int floor = 0);

/**
 * Fills the derived metrics of @p plan for @p op; exposed for tests.
 * Returns false when the plan is infeasible (tile does not fit in the
 * SRAM budget, factors exceed dims/cores, or residency factors exceed
 * their sharing groups). The one formula the enumerator also uses: a
 * partition half (tiles, groups, byte needs, compute and reduction
 * time) followed by a replication half (space, fetches, times).
 */
bool compute_plan_metrics(const graph::Operator& op, const PlanContext& ctx,
                          ExecPlan& plan);

}  // namespace elk::plan

#endif  // ELK_PLAN_PLAN_ENUMERATOR_H
