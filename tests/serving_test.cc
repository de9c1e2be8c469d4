/**
 * @file
 * Serving-runtime tests: engine resumability (step-driven == one-shot,
 * bit-identical, across all five design modes on the quickstart
 * model), cross-program weight residency with pressure eviction, the
 * Server's iteration-level batching and report determinism, the
 * compiled-plan cache, and the arrival-trace generators.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "elk/plan_cache.h"
#include "elk/serving_compiler.h"
#include "graph/model_builder.h"
#include "runtime/executor.h"
#include "runtime/server.h"
#include "sim/engine.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace elk {
namespace {

/// The CompilerHarness::tiny() chip, for fast serving-stack tests.
hw::ChipConfig
tiny_chip()
{
    hw::ChipConfig chip;
    chip.cores_per_chip = 64;
    chip.num_chips = 1;
    chip.sram_per_core = 256ull * 1024;
    chip.transfer_buffer_per_core = 8ull * 1024;
    chip.core_matmul_flops = 50e9;
    chip.core_vector_flops = 5e9;
    chip.inter_core_link_bw = 4e9;
    chip.hbm_total_bw = 200e9;
    chip.hbm_channels_per_chip = 2;
    chip.mesh_width = 8;
    chip.mesh_height = 8;
    return chip;
}

/// A synthetic op with an HBM preload and a fixed execute time.
sim::SimOp
make_op(int id, double dram, double exec_time, uint64_t preload_space,
        uint64_t exec_space)
{
    sim::SimOp op;
    op.op_id = id;
    op.dram_bytes = dram;
    op.delivery_bytes = dram;
    op.exec_local_time = exec_time;
    op.preload_space = preload_space;
    op.exec_space = exec_space;
    op.flops = 1e6;
    return op;
}

// ---------------------------------------------------------------------------
// Engine resumability

// The satellite acceptance check: a step()-driven run must produce a
// bit-identical SimResult (total_time, breakdown buckets, timings,
// utilization) to the one-shot run() on the quickstart model
// (Llama2-13B decode, batch 32, seq 2048, IPU-POD4) for every design.
TEST(EngineResumeQuickstartTest, StepDrivenMatchesOneShotAllModes)
{
    auto graph = graph::build_decode_graph(graph::llama2_13b(), 32, 2048);
    auto cfg = hw::ChipConfig::ipu_pod4();
    compiler::Compiler comp(graph, cfg);
    for (auto mode : {compiler::Mode::kBasic, compiler::Mode::kStatic,
                      compiler::Mode::kElkDyn, compiler::Mode::kElkFull,
                      compiler::Mode::kIdeal}) {
        compiler::CompileOptions opts;
        opts.mode = mode;
        opts.max_orders = 8;
        auto compiled = comp.compile(opts);
        sim::Machine machine(cfg, mode == compiler::Mode::kIdeal);
        sim::SimProgram program = runtime::lower_to_sim(
            graph, compiled.plan, comp.context());

        sim::Engine engine(machine);
        sim::SimResult one_shot = engine.run(program);

        sim::EngineState state(machine);
        state.begin(program);
        int steps = 0;
        while (state.step()) {
            ++steps;
        }
        sim::SimResult stepped = state.finish();

        EXPECT_GT(steps, static_cast<int>(program.ops.size()))
            << compiler::mode_name(mode);
        EXPECT_EQ(one_shot.serialize_bits(), stepped.serialize_bits())
            << compiler::mode_name(mode);
    }
}

TEST(EngineResumeTest, RunToChunksMatchOneShot)
{
    sim::Machine machine(hw::ChipConfig::tiny(16));
    const double dram = machine.config().hbm_total_bw * 1e-3;
    sim::SimProgram prog;
    for (int i = 0; i < 6; ++i) {
        prog.ops.push_back(make_op(i, dram, 3e-4, 1024, 2048));
    }
    prog.finalize_default_order();

    sim::Engine engine(machine);
    sim::SimResult one_shot = engine.run(prog);

    // Drive the same program in fixed wall-clock slices. Clipping an
    // event interval at a horizon re-rounds the flow arithmetic, so
    // chunked driving is numerically equivalent (tight tolerance)
    // rather than bit-identical — only uninterrupted step() runs
    // carry the bit-exactness guarantee.
    sim::EngineState state(machine);
    state.begin(prog);
    double horizon = 0.0;
    while (!state.done()) {
        horizon += 2.5e-4;
        state.run_to(horizon);
    }
    sim::SimResult chunked = state.finish();
    EXPECT_NEAR(chunked.total_time, one_shot.total_time, 1e-12);
    EXPECT_NEAR(chunked.preload_only, one_shot.preload_only, 1e-12);
    EXPECT_NEAR(chunked.execute_only, one_shot.execute_only, 1e-12);
    EXPECT_NEAR(chunked.overlapped, one_shot.overlapped, 1e-12);
    ASSERT_EQ(chunked.timing.size(), one_shot.timing.size());
    for (size_t i = 0; i < chunked.timing.size(); ++i) {
        EXPECT_NEAR(chunked.timing[i].exec_end,
                    one_shot.timing[i].exec_end, 1e-12);
    }
}

TEST(EngineResumeTest, RunToStopsAtHorizonAndIdlesWhenDone)
{
    sim::Machine machine(hw::ChipConfig::tiny(16));
    sim::SimProgram prog;
    prog.ops.push_back(make_op(0, 0, 1e-3, 1024, 2048));
    prog.finalize_default_order();

    sim::EngineState state(machine);
    state.begin(prog);
    state.run_to(4e-4);
    EXPECT_DOUBLE_EQ(state.now(), 4e-4);
    EXPECT_FALSE(state.done());
    state.run_to(10.0);  // way past completion: clock stops there
    EXPECT_TRUE(state.done());
    EXPECT_DOUBLE_EQ(state.now(), 10.0);
    sim::SimResult r = state.finish();
    EXPECT_NEAR(r.total_time, 1e-3, 1e-9);

    // A later program starts at the idled clock; its own result is
    // still measured from its begin().
    state.begin(prog);
    while (state.step()) {
    }
    sim::SimResult r2 = state.finish();
    EXPECT_GE(state.now(), 10.0);
    EXPECT_NEAR(r2.total_time, 1e-3, 1e-9);
}

// ---------------------------------------------------------------------------
// Weight residency

TEST(EngineResidencyTest, SecondRunSkipsPreloadsEntirely)
{
    sim::Machine machine(hw::ChipConfig::tiny(16));
    const double dram = machine.config().hbm_total_bw * 1e-3;
    sim::SimProgram prog;
    for (int i = 0; i < 4; ++i) {
        prog.ops.push_back(make_op(i, dram, 1e-4, 10 * 1024, 20 * 1024));
    }
    prog.finalize_default_order();

    sim::EngineState::Options opts;
    opts.residency_budget = machine.config().usable_sram_per_core();
    sim::EngineState state(machine, opts);

    state.begin(prog);
    while (state.step()) {
    }
    sim::SimResult cold = state.finish();
    EXPECT_EQ(state.resident_ops(), 4);
    EXPECT_EQ(state.resident_bytes(), 4u * 10 * 1024);

    state.begin(prog);
    while (state.step()) {
    }
    sim::SimResult warm = state.finish();
    EXPECT_EQ(state.resident_hits(), 4);
    EXPECT_DOUBLE_EQ(warm.preload_only, 0.0);
    EXPECT_LT(warm.total_time, cold.total_time / 2);
    // Resident weights count toward the warm run's footprint.
    EXPECT_GE(warm.peak_sram_per_core, 4u * 10 * 1024);
}

TEST(EngineResidencyTest, ZeroBudgetReproducesOneShotRuns)
{
    sim::Machine machine(hw::ChipConfig::tiny(16));
    const double dram = machine.config().hbm_total_bw * 1e-3;
    sim::SimProgram prog;
    for (int i = 0; i < 3; ++i) {
        prog.ops.push_back(make_op(i, dram, 1e-4, 4096, 8192));
    }
    prog.finalize_default_order();

    sim::EngineState state(machine);  // no residency
    state.begin(prog);
    while (state.step()) {
    }
    sim::SimResult first = state.finish();
    state.begin(prog);
    while (state.step()) {
    }
    sim::SimResult second = state.finish();
    EXPECT_EQ(state.resident_ops(), 0);
    EXPECT_EQ(first.serialize_bits(), second.serialize_bits());
}

TEST(EngineResidencyTest, PressureEvictsOldestInsteadOfOverflowing)
{
    hw::ChipConfig cfg = hw::ChipConfig::tiny(16);
    sim::Machine machine(cfg);
    const double dram = cfg.hbm_total_bw * 1e-4;
    const uint64_t usable = cfg.usable_sram_per_core();
    // Each op retains a third of SRAM: all six cannot stay resident.
    sim::SimProgram prog;
    for (int i = 0; i < 6; ++i) {
        prog.ops.push_back(
            make_op(i, dram, 1e-4, usable / 3, usable / 3 + 1024));
    }
    prog.finalize_default_order();

    sim::EngineState::Options opts;
    opts.residency_budget = usable;
    sim::EngineState state(machine, opts);
    for (int iter = 0; iter < 2; ++iter) {
        state.begin(prog);
        while (state.step()) {
        }
        sim::SimResult r = state.finish();
        EXPECT_FALSE(r.memory_exceeded);
    }
    EXPECT_GT(state.resident_evictions(), 0);
    EXPECT_LE(state.resident_bytes(), usable);
}

TEST(EngineResidencyTest, MismatchedProgramEvictsStaleEntries)
{
    sim::Machine machine(hw::ChipConfig::tiny(16));
    const double dram = machine.config().hbm_total_bw * 1e-3;
    sim::SimProgram a;
    a.ops.push_back(make_op(7, dram, 1e-4, 8192, 8192));
    a.finalize_default_order();
    // Same op id, different preload footprint: must not be reused.
    sim::SimProgram b;
    b.ops.push_back(make_op(7, dram, 1e-4, 4096, 8192));
    b.finalize_default_order();

    sim::EngineState::Options opts;
    opts.residency_budget = machine.config().usable_sram_per_core();
    sim::EngineState state(machine, opts);
    state.begin(a);
    while (state.step()) {
    }
    state.finish();
    EXPECT_EQ(state.resident_ops(), 1);

    state.begin(b);
    EXPECT_EQ(state.resident_bytes(), 0u);  // stale entry evicted
    while (state.step()) {
    }
    sim::SimResult r = state.finish();
    EXPECT_EQ(state.resident_hits(), 0);
    EXPECT_GT(r.preload_only, 0.0);
}

// ---------------------------------------------------------------------------
// Server

class ServerTest : public ::testing::Test {
  protected:
    ServerTest()
        : cache_(),
          sc_(make_serving_compiler(1))
    {
    }

    compiler::ServingCompiler
    make_serving_compiler(int jobs)
    {
        compiler::CompileOptions copts;
        copts.mode = compiler::Mode::kElkFull;
        copts.max_orders = 6;
        return compiler::ServingCompiler(testing::tiny_llm(), 512,
                                         tiny_chip(), copts, &cache_,
                                         jobs);
    }

    runtime::ServingReport
    serve(compiler::ServingCompiler& sc, runtime::ServerOptions sopts,
          const std::vector<double>& arrivals)
    {
        runtime::Server server(sc.machine(), sopts);
        return server.serve(arrivals,
                            [&](int b) { return sc.program(b); });
    }

    compiler::PlanCache cache_;
    compiler::ServingCompiler sc_;
};

TEST_F(ServerTest, ClosedLoopCompletesEveryRequest)
{
    runtime::ServerOptions sopts;
    sopts.max_batch = 4;
    sopts.tokens_per_request = 2;
    auto rep = serve(sc_, sopts, runtime::ArrivalTrace::closed_loop(12));
    EXPECT_EQ(rep.requests, 12);
    EXPECT_EQ(rep.tokens, 24);
    // 3 waves of 4 requests, 2 iterations each.
    EXPECT_EQ(rep.iterations, 6);
    EXPECT_EQ(rep.peak_queue_depth, 8);
    EXPECT_GT(rep.tokens_per_s, 0.0);
    EXPECT_LE(rep.p50_latency, rep.p95_latency);
    EXPECT_LE(rep.p95_latency, rep.p99_latency);
    EXPECT_LE(rep.p99_latency, rep.max_latency);
    EXPECT_NEAR(rep.max_latency, rep.makespan, 1e-12);
}

TEST_F(ServerTest, SteadyStateReusesResidentWeights)
{
    runtime::ServerOptions sopts;
    sopts.max_batch = 4;
    sopts.tokens_per_request = 8;
    auto rep = serve(sc_, sopts, runtime::ArrivalTrace::closed_loop(4));
    EXPECT_EQ(rep.iterations, 8);
    EXPECT_GT(rep.preloads_skipped, 0);
    EXPECT_LT(rep.steady_decode_preload, rep.first_decode_preload);
    EXPECT_GT(rep.resident_bytes, 0u);
    EXPECT_FALSE(rep.memory_exceeded);
}

TEST_F(ServerTest, ResidencyOffMatchesColdEveryIteration)
{
    runtime::ServerOptions sopts;
    sopts.max_batch = 4;
    sopts.tokens_per_request = 4;
    sopts.keep_resident = false;
    auto rep = serve(sc_, sopts, runtime::ArrivalTrace::closed_loop(4));
    EXPECT_EQ(rep.preloads_skipped, 0);
    EXPECT_DOUBLE_EQ(rep.steady_decode_preload,
                     rep.first_decode_preload);
    EXPECT_EQ(rep.resident_bytes, 0u);
}

TEST_F(ServerTest, PoissonReportBitIdenticalAcrossCompilerJobs)
{
    runtime::ServerOptions sopts;
    sopts.max_batch = 4;
    sopts.tokens_per_request = 2;
    auto arrivals = runtime::ArrivalTrace::poisson(16, 2000.0, 7);

    auto serial = serve(sc_, sopts, arrivals);
    compiler::PlanCache fresh_cache;
    compiler::CompileOptions copts;
    copts.mode = compiler::Mode::kElkFull;
    copts.max_orders = 6;
    compiler::ServingCompiler parallel_sc(testing::tiny_llm(), 512,
                                          tiny_chip(), copts,
                                          &fresh_cache, 4);
    auto parallel = serve(parallel_sc, sopts, arrivals);
    EXPECT_EQ(serial.serialize_bits(), parallel.serialize_bits());
    EXPECT_EQ(serial.requests, 16);
}

/// This process's OS thread count from /proc/self/status; -1 where
/// /proc is absent.
int
process_threads()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0) {
            return std::stoi(line.substr(8));
        }
    }
    return -1;
}

TEST(ServingCompilerTest, CachedBucketsHoldNoCompilerThreads)
{
    const int before = process_threads();
    if (before < 0) {
        GTEST_SKIP() << "no /proc/self/status";
    }
    compiler::CompileOptions copts;
    copts.mode = compiler::Mode::kElkFull;
    copts.max_orders = 6;
    compiler::ServingCompiler sc(testing::tiny_llm(), 512, tiny_chip(),
                                 copts, nullptr, 4);
    // Every decode bucket of a max_batch 128 server: powers of two.
    std::vector<std::shared_ptr<const sim::SimProgram>> programs;
    for (int batch = 1; batch <= 128; batch *= 2) {
        programs.push_back(sc.program(batch));
    }
    ASSERT_EQ(programs.size(), 8u);
    // A cached bucket keeps its program only: the bucket compilers and
    // their 4-job worker pools are gone once lowering is done.
    EXPECT_EQ(process_threads(), before);
    for (size_t i = 0; i < programs.size(); ++i) {
        EXPECT_EQ(sc.program(1 << i), programs[i]) << "bucket " << (1 << i);
    }
}

TEST_F(ServerTest, OpenLoopLeavesIdleGapsBetweenArrivals)
{
    runtime::ServerOptions sopts;
    sopts.max_batch = 2;
    // Arrivals far apart: the server idles in between, so makespan
    // is dominated by the last arrival, and nothing ever queues.
    std::vector<double> arrivals = {0.0, 1.0, 2.0};
    auto rep = serve(sc_, sopts, arrivals);
    EXPECT_GE(rep.makespan, 2.0);
    EXPECT_EQ(rep.peak_queue_depth, 0);
    EXPECT_EQ(rep.iterations, 3);
}

// ---------------------------------------------------------------------------
// Plan cache

TEST(PlanCacheTest, SecondCompileHitsAndMatchesBitExactly)
{
    auto harness_graph = graph::build_decode_graph(testing::tiny_llm(),
                                                   8, 512);
    hw::ChipConfig cfg = tiny_chip();
    compiler::PlanCache cache;
    compiler::Compiler comp(harness_graph, cfg);
    comp.set_plan_cache(&cache);

    compiler::CompileOptions opts;
    opts.mode = compiler::Mode::kElkFull;
    opts.max_orders = 6;
    auto first = comp.compile(opts);
    auto second = comp.compile(opts);
    EXPECT_FALSE(first.from_cache);
    EXPECT_TRUE(second.from_cache);
    EXPECT_EQ(first.plan.serialize_bits(), second.plan.serialize_bits());
    EXPECT_EQ(first.stats.orders_tested, second.stats.orders_tested);
    auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.entries, 1);

    // A different mode is a different key.
    opts.mode = compiler::Mode::kBasic;
    auto basic = comp.compile(opts);
    EXPECT_FALSE(basic.from_cache);
    EXPECT_EQ(cache.stats().entries, 2);
}

TEST(PlanCacheTest, HitReturnsTheCachedResultUnscheduled)
{
    // A sentinel no schedule stage could produce, stored under the
    // compile's own key: compile() must hand it back unchanged.
    auto graph = graph::build_decode_graph(testing::tiny_llm(), 8, 512);
    hw::ChipConfig cfg = tiny_chip();
    compiler::CompileOptions opts;
    opts.mode = compiler::Mode::kElkFull;
    auto sentinel = std::make_shared<compiler::CompileResult>();
    sentinel->plan.mode = "sentinel";
    sentinel->plan.est_total_time = 42.0;
    sentinel->stats.orders_tested = 12345;
    compiler::PlanCache cache;
    cache.insert(compiler::make_plan_key(graph, cfg, opts), sentinel);

    compiler::Compiler comp(graph, cfg);
    comp.set_plan_cache(&cache);
    auto result = comp.compile(opts);
    EXPECT_TRUE(result.from_cache);
    EXPECT_EQ(result.plan.mode, "sentinel");
    EXPECT_EQ(result.plan.serialize_bits(),
              sentinel->plan.serialize_bits());
    EXPECT_EQ(result.stats.orders_tested, 12345);
    EXPECT_EQ(result.stats.n_ops, 0);  // finalize did not run either
    EXPECT_EQ(cache.stats().hits, 1);
    EXPECT_EQ(cache.stats().misses, 0);
}

TEST(PlanCacheTest, KeyDistinguishesModelChipModeAndKnobs)
{
    auto g1 = graph::build_decode_graph(testing::tiny_llm(), 8, 512);
    auto g2 = graph::build_decode_graph(testing::tiny_llm(), 16, 512);
    hw::ChipConfig c1 = tiny_chip();
    hw::ChipConfig c2 = tiny_chip();
    c2.hbm_total_bw *= 2;
    compiler::CompileOptions opts;

    auto base = compiler::make_plan_key(g1, c1, opts);
    EXPECT_FALSE(base < base);
    auto batch = compiler::make_plan_key(g2, c1, opts);
    EXPECT_TRUE(base < batch || batch < base);
    // The diagnostic batch field tracks operator batch dims, which
    // scale with the request batch.
    EXPECT_GT(batch.batch, base.batch);
    auto chip = compiler::make_plan_key(g1, c2, opts);
    EXPECT_TRUE(base < chip || chip < base);
    opts.max_orders += 1;
    auto knobs = compiler::make_plan_key(g1, c1, opts);
    EXPECT_TRUE(base < knobs || knobs < base);
}

TEST(ServingCompilerTest, SharedCacheAmortizesAcrossInstances)
{
    compiler::PlanCache cache;
    compiler::CompileOptions copts;
    copts.mode = compiler::Mode::kElkDyn;
    compiler::ServingCompiler a(testing::tiny_llm(), 512, tiny_chip(),
                                copts, &cache);
    compiler::ServingCompiler b(testing::tiny_llm(), 512, tiny_chip(),
                                copts, &cache);
    auto pa = a.program(4);
    EXPECT_EQ(cache.stats().hits, 0);
    auto pb = b.program(4);
    EXPECT_EQ(cache.stats().hits, 1);
    ASSERT_EQ(pa->ops.size(), pb->ops.size());
    // Memoization returns the identical object within an instance.
    EXPECT_EQ(pa.get(), a.program(4).get());
}

// Many threads race program() on one ServingCompiler: the first
// caller of each (batch, prompt_len) grid point compiles under the
// unique lock, later callers hit the shared-lock warm path, and every
// caller of a point gets the identical memoized object. This is the
// std::shared_mutex warm-grid path the TSan CI leg watches.
TEST(ServingCompilerTest, ConcurrentProgramCallsShareTheWarmGrid)
{
    compiler::PlanCache cache;
    compiler::CompileOptions copts;
    copts.mode = compiler::Mode::kElkDyn;
    copts.max_orders = 6;
    compiler::ServingCompiler pc(
        testing::tiny_llm(), 128, tiny_chip(), copts, &cache,
        /*jobs=*/1, compiler::ServingCompiler::Options::prefill());
    util::ThreadPool pool(4);
    constexpr int kTasks = 36;
    std::vector<const sim::SimProgram*> seen(kTasks);
    util::ThreadPool::run(&pool, kTasks, [&](int i) {
        const int batches[] = {1, 2, 4};
        const int lens[] = {16, 64, 128};
        seen[i] =
            pc.program(batches[i % 3], lens[(i / 3) % 3]).get();
    });
    // i and i % 9 name the same (batch, len) grid point.
    for (int i = 9; i < kTasks; ++i) {
        EXPECT_EQ(seen[i], seen[i % 9]);
    }
}

// ---------------------------------------------------------------------------
// Arrival traces

TEST(ArrivalTraceTest, ClosedLoopIsAllZeros)
{
    auto t = runtime::ArrivalTrace::closed_loop(5);
    ASSERT_EQ(t.size(), 5u);
    for (double x : t) {
        EXPECT_DOUBLE_EQ(x, 0.0);
    }
}

TEST(ArrivalTraceTest, PoissonIsSortedSeededAndRateScaled)
{
    auto a = runtime::ArrivalTrace::poisson(200, 100.0, 11);
    auto b = runtime::ArrivalTrace::poisson(200, 100.0, 11);
    auto c = runtime::ArrivalTrace::poisson(200, 100.0, 12);
    ASSERT_EQ(a.size(), 200u);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    for (size_t i = 1; i < a.size(); ++i) {
        EXPECT_GE(a[i], a[i - 1]);
    }
    // Mean gap ~= 1/rate (law of large numbers, loose bound).
    double mean_gap = a.back() / 200.0;
    EXPECT_GT(mean_gap, 0.5 / 100.0);
    EXPECT_LT(mean_gap, 2.0 / 100.0);
}

}  // namespace
}  // namespace elk
