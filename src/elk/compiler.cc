#include "elk/compiler.h"

#include <chrono>
#include <optional>

#include "elk/ideal.h"
#include "elk/plan_cache.h"

namespace elk::compiler {

Compiler::Compiler(const graph::Graph& graph, const hw::ChipConfig& cfg,
                   const cost::ExecCostModel* cost_model, int jobs)
{
    init(graph, std::make_shared<sim::Machine>(cfg), cost_model, jobs);
}

Compiler::Compiler(const graph::Graph& graph, const sim::Machine& machine,
                   int jobs)
{
    init(graph,
         std::make_shared<sim::Machine>(machine.config(),
                                        machine.shared_topology(),
                                        machine.shared_traffic()),
         nullptr, jobs);
}

void
Compiler::init(const graph::Graph& graph,
               std::shared_ptr<const sim::Machine> machine,
               const cost::ExecCostModel* cost_model, int jobs)
{
    int threads = util::ThreadPool::resolve_jobs(jobs);
    if (threads > 1) {
        pool_ = std::make_unique<util::ThreadPool>(threads);
    }
    state_.graph = &graph;
    state_.pool = pool_.get();
    state_.machine = std::move(machine);
    // Build the analysis products once; every compile() reuses them.
    state_.ctx.set_cost_model(cost_model != nullptr
                                  ? cost::borrow_cost_model(cost_model)
                                  : cost::make_analytic_cost());
    state_.ctx.cfg = &state_.machine->config();
    state_.ctx.traffic = &state_.machine->traffic();
    state_.library =
        std::make_shared<PlanLibrary>(graph, state_.ctx, state_.pool);
}

int
Compiler::jobs() const
{
    return pool_ ? pool_->size() : 1;
}

int
Compiler::max_fit_window() const
{
    return compiler::max_fit_window(*state_.library);
}

CompileResult
Compiler::compile(const CompileOptions& opts) const
{
    auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&t0] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    std::optional<PlanKey> cache_key;
    if (plan_cache_ != nullptr) {
        cache_key = make_plan_key(*state_.graph, state_.machine->config(),
                                  opts);
        if (auto hit = plan_cache_->lookup(*cache_key)) {
            CompileResult result = *hit;
            result.from_cache = true;
            result.compile_seconds = elapsed();
            return result;
        }
    }

    CompileState state = state_;  // shares the analysis products
    state.opts = opts;
    switch (opts.mode) {
      case Mode::kBasic: state.plan = schedule_basic(state); break;
      case Mode::kStatic: state.plan = schedule_static(state); break;
      case Mode::kElkDyn: schedule_elk(state); break;
      case Mode::kElkFull:
        schedule_elk(state);
        preload_order_search(state);
        break;
      case Mode::kIdeal: state.plan = build_ideal_plan(*state.library); break;
    }
    finalize(state);

    CompileResult result;
    result.plan = std::move(*state.plan);
    result.stats = state.stats;
    if (cache_key) {
        plan_cache_->insert(*cache_key,
                            std::make_shared<CompileResult>(result));
    }
    result.compile_seconds = elapsed();
    return result;
}

}  // namespace elk::compiler
