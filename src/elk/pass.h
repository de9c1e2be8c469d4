/**
 * @file
 * The compiler's stages (paper Fig. 9) and the state they share.
 *
 * Compiler (compiler.h) runs one fixed sequence over a CompileState:
 *
 *   hardware analysis  -> sim::Machine + plan context  (constructor)
 *   plan library       -> per-signature Pareto fronts  (constructor)
 *   one schedule stage -> schedule_basic | schedule_static |
 *                         schedule_elk (+ preload_order_search for
 *                         Elk-Full) | build_ideal_plan (ideal.h)
 *   finalize           -> Table 2 search statistics
 *
 * The analysis products are shared_ptrs, so each compile() call works
 * on its own cheap copy of the state. Parallel stages fan out over
 * state.pool and merge deterministically — the compiled plan is
 * bit-identical at any job count (enforced by pipeline_test).
 */
#ifndef ELK_ELK_PASS_H
#define ELK_ELK_PASS_H

#include <memory>
#include <optional>
#include <string>

#include "cost/exec_cost.h"
#include "elk/inductive_scheduler.h"
#include "elk/schedule_ir.h"
#include "sim/machine.h"
#include "util/thread_pool.h"

namespace elk::compiler {

/// Compilation designs (paper §6.1).
enum class Mode { kBasic, kStatic, kElkDyn, kElkFull, kIdeal };

/// Human-readable mode name as used in the paper's figures.
std::string mode_name(Mode mode);

/// Compiler knobs.
struct CompileOptions {
    Mode mode = Mode::kElkFull;
    /// Cap on simultaneously live preloads the scheduler explores.
    int max_window = 28;
    /// Maximum candidate preload orders evaluated (Elk-Full).
    int max_orders = 96;
    /// Layers of the model used to score candidate orders before the
    /// winner is scheduled on the full model (compile-time pruning).
    int score_layers = 2;
    /// Static mode only: fixed per-core preload-region size in bytes;
    /// 0 searches the best static size offline (§6.1).
    uint64_t static_region = 0;
};

/// Search-space statistics (paper Table 2) gathered during compile.
struct SearchStats {
    int n_ops = 0;          ///< N.
    int max_plans = 0;      ///< P.
    int max_fit_window = 0; ///< K.
    int heavy_per_layer = 0;///< H.
    int heavy_fit = 0;      ///< C.
    int orders_tested = 0;  ///< candidate preload orders evaluated.
};

/**
 * Everything the stages consume and produce. The analysis products
 * are shared so per-compile copies are cheap; per-compile products
 * (plan, stats) are value members of each copy.
 */
struct CompileState {
    // --- inputs ---
    const graph::Graph* graph = nullptr;
    CompileOptions opts;
    /// Worker pool for the parallel stages; nullptr = serial.
    util::ThreadPool* pool = nullptr;

    // --- hardware analysis ---
    /// The chip's non-ideal machine: its config and traffic model back
    /// the plan context, and the offline tuning sweeps simulate on it.
    std::shared_ptr<const sim::Machine> machine;
    plan::PlanContext ctx;  ///< points into machine + cost handle.

    // --- plan library ---
    std::shared_ptr<const PlanLibrary> library;

    // --- per-compile products ---
    /// Scheduler knobs tuned by schedule_elk's offline sweep;
    /// preload_order_search schedules candidates with them.
    std::optional<ScheduleOptions> tuned_schedule;
    std::optional<ExecutionPlan> plan;
    SearchStats stats;
};

/// Basic (§6.1): maximize the execution space, preload only the next
/// operator.
ExecutionPlan schedule_basic(const CompileState& state);

/// Static (§6.1, T10-extended): fixed preload/execution split, best
/// static sizes searched offline on state.machine.
ExecutionPlan schedule_static(const CompileState& state);

/// Elk-Dyn (§4.2-4.3): inductive scheduling with cost-aware
/// allocation, its knobs tuned offline; sets plan and tuned_schedule.
void schedule_elk(CompileState& state);

/// Elk-Full (§4.4): refines schedule_elk's plan by preload order
/// permutation; sets plan and the order-search statistics.
void preload_order_search(CompileState& state);

/// Fills the Table 2 statistics of state.stats.
void finalize(CompileState& state);

/// The paper's K for a plan library: the longest run of consecutive
/// operators whose minimum preload spaces fit on-chip together.
int max_fit_window(const PlanLibrary& library);

}  // namespace elk::compiler

#endif  // ELK_ELK_PASS_H
