/**
 * @file
 * Two-level inductive operator scheduling (paper §4.2).
 *
 * Operators execute in graph order; preloads run sequentially in a
 * given preload order pi. Scheduling decides, per operator i (backward
 * from the last), the preload frontier F_i — how many pi-positions are
 * issued before execute(i) in the device program. The preloads between
 * F_i and F_{i+1} are issued right after execute(i), so choosing a
 * larger F_i overlaps more preloads with execute(i) at the cost of
 * their SRAM footprints, which the §4.3 allocator must then fit.
 *
 * Times are backward-relative: T_end = 0 and all start times are
 * negative. For each candidate frontier the scheduler allocates SRAM
 * for the live set (§4.3), reads the ALAP preload start estimate
 * that follows it, and picks the frontier maximizing T_s-exe(i) —
 * exactly the paper's "minimize current-to-end time" rule
 * (Theorem 4.2).
 *
 * Cost per step i: one live-set build at frontier lo[i], scanning
 * only from first_above[i] (the smallest position holding an operator
 * > i), and one ALAP chain over [lo[i], F_{i+1}), which does not
 * depend on the candidate frontier. Each candidate frontier then adds
 * one incremental live-set extension (the next position), which also
 * adds that op's floor preload space to a running floor footprint.
 * While the floor footprint (op i at its fastest exec plan, every
 * live op at its floor) fits the budget, the allocator's answer is
 * known without calling it: no downgrade, exec plan 0, floors kept.
 * Only frontiers whose floor footprint overflows SRAM call the
 * allocator, whose greedy stays the one downgrade path.
 */
#ifndef ELK_ELK_INDUCTIVE_SCHEDULER_H
#define ELK_ELK_INDUCTIVE_SCHEDULER_H

#include <optional>
#include <vector>

#include "elk/memory_allocator.h"
#include "elk/schedule_ir.h"

namespace elk::compiler {

/// Knobs of the inductive scheduler.
struct ScheduleOptions {
    /// Cap on simultaneously live preloaded operators (search width).
    int max_window = 28;
    /// Schedule only the first @p limit_ops operators (0 = all); used
    /// to score candidate preload orders cheaply (§4.4).
    int limit_ops = 0;
    /**
     * Weight of the delivery-replication fabric overhead when anchoring
     * each operator's preload-state plan: the walk starts at
     * argmin(distribute_time + overhead_weight * delivery_overhead).
     * 0 starts at full broadcast (overhead hides under execution in
     * compute-bound regimes), large values start at scatter (fabric is
     * precious in bandwidth-bound regimes). The compiler sweeps this
     * offline and keeps the best simulated plan.
     */
    double overhead_weight = 1.0;
};

/// The §4.2 scheduler; one instance per (graph, plan library).
class InductiveScheduler {
  public:
    explicit InductiveScheduler(const PlanLibrary& library)
        : library_(library), allocator_(library)
    {
    }

    /**
     * Schedules the model under preload order @p preload_order (a
     * permutation of execution indices 0..N-1). Returns nullopt when
     * the order cannot fit on-chip memory (invalid order, §4.4).
     */
    std::optional<ExecutionPlan> schedule(
        const std::vector<int>& preload_order,
        const ScheduleOptions& opts = {}) const;

    /// Convenience: schedule with the identity (execution) order.
    std::optional<ExecutionPlan> schedule_in_order(
        const ScheduleOptions& opts = {}) const;

    /// Estimated preload duration of op given its preload plan
    /// (max of HBM roofline and interconnect delivery, paper §4.2).
    double preload_duration(int op_id,
                            const plan::PreloadPlan& preload) const;

  private:
    const PlanLibrary& library_;
    MemoryAllocator allocator_;
};

}  // namespace elk::compiler

#endif  // ELK_ELK_INDUCTIVE_SCHEDULER_H
