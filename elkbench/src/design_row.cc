#include "design_row.h"

#include "bench.h"
#include "elk/compiler.h"
#include "runtime/executor.h"
#include "sim/engine.h"
#include "sim/machine.h"

namespace elkbench {

namespace ec = elk::compiler;

const std::array<ec::Mode, 5> kDesigns = {
    ec::Mode::kBasic, ec::Mode::kStatic, ec::Mode::kElkDyn,
    ec::Mode::kElkFull, ec::Mode::kIdeal};

const char*
schedule_span_name(int mode_index)
{
    static const char* const names[5] = {
        "elk.schedule.basic", "elk.schedule.static", "elk.schedule.elk-dyn",
        "elk.schedule.elk-full", "elk.schedule.ideal"};
    return names[mode_index];
}

const char*
design_key(int mode_index)
{
    static const char* const keys[5] = {"basic", "static", "elk-dyn",
                                        "elk-full", "ideal"};
    return keys[mode_index];
}

RowResult
run_design_row(const elk::graph::Graph& graph, const elk::hw::ChipConfig& cfg,
               int max_orders, Tracer* tracer)
{
    RowResult out;
    auto t0 = Clock::now();
    std::unique_ptr<ec::Compiler> compiler;
    {
        Scope s(tracer, "elk.analysis");
        compiler = std::make_unique<ec::Compiler>(graph, cfg, nullptr,
                                                  /*jobs=*/1);
    }
    out.analysis_s = seconds_since(t0);
    out.max_plans = compiler->library().max_plans_per_op();
    out.fit_window = compiler->max_fit_window();

    const elk::sim::Machine machine(cfg);
    const elk::sim::Machine ideal_machine(cfg, /*ideal=*/true);
    for (int d = 0; d < 5; ++d) {
        auto t1 = Clock::now();
        ec::CompileOptions opts;
        opts.mode = kDesigns[d];
        opts.max_orders = max_orders;
        ec::CompileResult compiled;
        {
            Scope s(tracer, schedule_span_name(d));
            compiled = compiler->compile(opts);
        }
        elk::sim::SimProgram program;
        {
            Scope s(tracer, "runtime.lower");
            program = elk::runtime::lower_to_sim(graph, compiled.plan,
                                                 compiler->context());
        }
        elk::sim::SimResult result;
        {
            Scope s(tracer, "sim.engine");
            const elk::sim::Machine& m =
                kDesigns[d] == ec::Mode::kIdeal ? ideal_machine : machine;
            result = elk::sim::Engine(m).run(program);
        }
        out.design_s[d] = seconds_since(t1);
        out.row.latency[d] = result.total_time;
        out.row.memory_exceeded[d] = result.memory_exceeded;
        out.plan_digest[d] = digest_of(compiled.plan.serialize_bits());
        out.program_ops += static_cast<int>(program.ops.size());
        if (d == kElkFull) {
            out.orders_tested = compiled.stats.orders_tested;
            out.full = std::move(result);
        }
    }
    return out;
}

}  // namespace elkbench
