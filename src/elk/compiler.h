/**
 * @file
 * The Elk compiler (paper Fig. 9). It owns the analysis products
 * (hardware analysis + plan library, built once per (graph, chip)
 * pair) and calls one design's schedule stages (pass.h) per compile()
 * call:
 *
 *  - Basic:    maximize execution space, preload only the next op;
 *  - Static:   T10-extended — fixed preload/execution split, best
 *              static sizes searched offline;
 *  - Elk-Dyn:  inductive scheduling + cost-aware allocation (§4.2-4.3);
 *  - Elk-Full: Elk-Dyn plus preload order permutation (§4.4);
 *  - Ideal:    the §6.1 roofline (run it on an ideal split-fabric
 *              Machine).
 *
 * Compilation parallelizes over a work-stealing pool (the `jobs`
 * knob); the produced plan is bit-identical at any job count.
 */
#ifndef ELK_ELK_COMPILER_H
#define ELK_ELK_COMPILER_H

#include <memory>

#include "cost/exec_cost.h"
#include "elk/pass.h"
#include "elk/schedule_ir.h"
#include "hw/chip_config.h"
#include "sim/machine.h"
#include "util/thread_pool.h"

namespace elk::compiler {

class PlanCache;

/// Result of one compilation.
struct CompileResult {
    ExecutionPlan plan;
    SearchStats stats;
    double compile_seconds = 0.0;
    /// True when the plan came from the PlanCache (no schedule stage
    /// ran).
    bool from_cache = false;
};

/// The compiler; one instance per (graph, chip) pair.
class Compiler {
  public:
    /**
     * Builds the analysis products (hardware analysis + plan
     * library). @p cost_model overrides the planner's execution cost
     * model (default: the analytic model); the pointer must outlive
     * the compiler. @p jobs sets the worker threads for the parallel
     * stages — 1 (default) is serial, 0 uses every hardware thread,
     * N > 1 uses N threads; the plan library build in this
     * constructor already fans out over them.
     */
    Compiler(const graph::Graph& graph, const hw::ChipConfig& cfg,
             const cost::ExecCostModel* cost_model = nullptr,
             int jobs = 1);

    /// Same for @p machine's chip with the analytic cost model, reusing
    /// the machine's topology and traffic model instead of rebuilding
    /// them; the plans are identical. An ideal split-fabric @p machine
    /// is fine: the offline tuning sweeps still simulate on the
    /// chip's non-ideal fabric.
    Compiler(const graph::Graph& graph, const sim::Machine& machine,
             int jobs = 1);

    /// Compiles an execution plan for the requested design. With a
    /// plan cache attached, a hit returns the cached result and a miss
    /// stores the freshly compiled one. Concurrent calls on one
    /// Compiler are safe: each works on its own copy of the state.
    CompileResult compile(const CompileOptions& opts = {}) const;

    /**
     * Attaches a compiled-plan cache (thread-safe, shared across
     * compilers and threads; the serving runtime's amortization
     * point). @p cache must outlive the compiler; nullptr detaches.
     */
    void set_plan_cache(PlanCache* cache) { plan_cache_ = cache; }

    /// Plan library (Table 2 statistics, tests).
    const PlanLibrary& library() const { return *state_.library; }

    /// Plan context (for lowering to the simulator).
    const plan::PlanContext& context() const { return state_.ctx; }

    /// The paper's K for this graph: the longest run of consecutive
    /// operators whose minimum preload spaces fit on-chip together.
    int max_fit_window() const;

    /// Worker threads of the construction-time pool (1 = serial).
    int jobs() const;

  private:
    /// The shared body of the constructors: hardware analysis on
    /// @p machine, then the plan library.
    void init(const graph::Graph& graph,
              std::shared_ptr<const sim::Machine> machine,
              const cost::ExecCostModel* cost_model, int jobs);

    std::unique_ptr<util::ThreadPool> pool_;
    CompileState state_;  ///< analysis products shared by compiles.
    PlanCache* plan_cache_ = nullptr;  ///< non-owning, optional.
};

}  // namespace elk::compiler

#endif  // ELK_ELK_COMPILER_H
