#include "elk/compiler.h"

#include <chrono>
#include <optional>

#include "elk/plan_cache.h"
#include "util/logging.h"

namespace elk::compiler {

Compiler::Compiler(const graph::Graph& graph, const hw::ChipConfig& cfg,
                   const cost::ExecCostModel* cost_model, int jobs)
    : pipeline_(CompilerPipeline::standard())
{
    init(graph, cfg, cost_model, jobs);
}

Compiler::Compiler(const graph::Graph& graph, const sim::Machine& machine,
                   int jobs)
    : pipeline_(CompilerPipeline::standard())
{
    // hardware-analysis finds these products present and keeps them.
    state_.topo = machine.shared_topology();
    state_.traffic = machine.shared_traffic();
    init(graph, machine.config(), nullptr, jobs);
}

void
Compiler::init(const graph::Graph& graph, const hw::ChipConfig& cfg,
               const cost::ExecCostModel* cost_model, int jobs)
{
    int threads = util::ThreadPool::resolve_jobs(jobs);
    if (threads > 1) {
        pool_ = std::make_unique<util::ThreadPool>(threads);
    }
    state_.graph = &graph;
    state_.pool = pool_.get();
    state_.cfg = std::make_shared<hw::ChipConfig>(cfg);
    if (cost_model != nullptr) {
        state_.ctx.set_cost_model(cost::borrow_cost_model(cost_model));
    }
    // Build the analysis products once; every compile() reuses them.
    pipeline_.run_prefix(state_, "plan-library");
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
    pipeline_.validate_filter(opts.pass_filter);

    CompileState state = state_;  // shares the analysis products
    state.opts = opts;
    {
        std::lock_guard<std::mutex> lock(machine_mu_);
        state.tuning_machine = cached_machine_;
    }

    // Plan-cache consult: on a hit the cached plan becomes the state's
    // product and every scheduling pass disables itself (the
    // cached_plan hook), leaving only the cheap analysis/finalize
    // stages to run below.
    std::optional<PlanKey> cache_key;
    std::shared_ptr<const CompileResult> cache_hit;
    if (plan_cache_ != nullptr) {
        cache_key = make_plan_key(*state_.graph, *state_.cfg, opts);
        cache_hit = plan_cache_->lookup(*cache_key);
        if (cache_hit) {
            state.cached_plan = std::shared_ptr<const ExecutionPlan>(
                cache_hit, &cache_hit->plan);
            state.plan = cache_hit->plan;
        }
    }

    // Per-compile job override: 0 inherits the construction pool.
    std::unique_ptr<util::ThreadPool> local_pool;
    if (opts.jobs != 0) {
        int threads = util::ThreadPool::resolve_jobs(opts.jobs);
        if (threads <= 1) {
            state.pool = nullptr;
        } else if (pool_ && pool_->size() == threads) {
            state.pool = pool_.get();
        } else {
            local_pool = std::make_unique<util::ThreadPool>(threads);
            state.pool = local_pool.get();
        }
    }

    pipeline_.run(state);
    util::check(state.plan.has_value(),
                "compile: the pipeline produced no ExecutionPlan for "
                "mode " + mode_name(opts.mode) +
                    " — a scheduling pass was skipped (--passes?)");
    {
        std::lock_guard<std::mutex> lock(machine_mu_);
        if (!cached_machine_) {
            cached_machine_ = state.tuning_machine;
        }
    }

    CompileResult result;
    result.plan = std::move(*state.plan);
    if (cache_hit) {
        // Search statistics describe the original search, not the
        // (skipped) cached compile.
        result.stats = cache_hit->stats;
        result.from_cache = true;
    } else {
        result.stats = state.stats;
        if (cache_key) {
            plan_cache_->insert(
                *cache_key, std::make_shared<CompileResult>(result));
        }
    }
    auto t1 = std::chrono::steady_clock::now();
    result.compile_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    return result;
}

}  // namespace elk::compiler
