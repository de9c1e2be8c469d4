#include "elk/memory_allocator.h"

#include <limits>

#include "util/logging.h"

namespace elk::compiler {

AllocationChoice
MemoryAllocator::allocate(int current_op, const std::vector<int>& live_ops,
                          const std::vector<int>& live_exec_idx,
                          const std::vector<int>& live_floor_idx,
                          uint64_t budget) const
{
    util::check(live_ops.size() == live_exec_idx.size() &&
                    live_ops.size() == live_floor_idx.size(),
                "MemoryAllocator: request size mismatch");

    const auto& exec_front = library_.exec_plans(current_op);
    AllocationChoice choice;
    choice.exec_idx = 0;
    choice.preload_idx = live_floor_idx;

    // Each live op's preload front, looked up (and checked) once.
    std::vector<const std::vector<plan::PreloadPlan>*> fronts(
        live_ops.size());
    for (size_t j = 0; j < live_ops.size(); ++j) {
        fronts[j] = &library_.preload_plans(live_ops[j], live_exec_idx[j]);
    }
    // Total footprint of the current selection, kept up to date on
    // every downgrade (exact uint64_t arithmetic, so it always equals
    // the recomputed sum).
    uint64_t space = exec_front[choice.exec_idx].exec_space;
    for (size_t j = 0; j < live_ops.size(); ++j) {
        space += (*fronts[j])[choice.preload_idx[j]].preload_space;
    }
    while (space > budget) {
        // Candidate downgrades: current op's next exec plan, or any
        // live op's next preload plan. Pick max freed-space/added-time.
        double best_delta = -1.0;
        int best_kind = -1;  // 0 = exec plan, 1 = preload plan
        size_t best_j = 0;

        if (choice.exec_idx + 1 < static_cast<int>(exec_front.size())) {
            const auto& cur = exec_front[choice.exec_idx];
            const auto& nxt = exec_front[choice.exec_idx + 1];
            double freed = static_cast<double>(cur.exec_space) -
                           static_cast<double>(nxt.exec_space);
            double added = nxt.time_cost() - cur.time_cost();
            double delta = added <= 0
                               ? std::numeric_limits<double>::infinity()
                               : freed / added;
            if (delta > best_delta) {
                best_delta = delta;
                best_kind = 0;
            }
        }
        for (size_t j = 0; j < live_ops.size(); ++j) {
            const auto& front = *fronts[j];
            if (choice.preload_idx[j] + 1 >=
                static_cast<int>(front.size())) {
                continue;
            }
            const auto& cur = front[choice.preload_idx[j]];
            const auto& nxt = front[choice.preload_idx[j] + 1];
            double freed = static_cast<double>(cur.preload_space) -
                           static_cast<double>(nxt.preload_space);
            double added = nxt.time_cost() - cur.time_cost();
            double delta = added <= 0
                               ? std::numeric_limits<double>::infinity()
                               : freed / added;
            if (delta > best_delta) {
                best_delta = delta;
                best_kind = 1;
                best_j = j;
            }
        }

        if (best_kind < 0) {
            choice.feasible = false;
            choice.used_space = space;
            return choice;  // every operator already at its smallest plan
        }
        if (best_kind == 0) {
            space -= exec_front[choice.exec_idx].exec_space;
            space += exec_front[++choice.exec_idx].exec_space;
        } else {
            const auto& front = *fronts[best_j];
            int& idx = choice.preload_idx[best_j];
            space -= front[idx].preload_space;
            space += front[++idx].preload_space;
        }
    }

    choice.feasible = true;
    choice.used_space = space;
    choice.exec_time = exec_front[choice.exec_idx].exec_time;
    for (size_t j = 0; j < live_ops.size(); ++j) {
        choice.total_distribute_time +=
            (*fronts[j])[choice.preload_idx[j]].time_cost();
    }
    return choice;
}

}  // namespace elk::compiler
