/**
 * @file
 * Tests for the compiler core: the work-stealing thread pool, the
 * bit-identity of parallel and serial compilation (the determinism
 * contract of pass.h) on both the tiny fixture and the quickstart
 * model, and concurrent compile() calls on one shared Compiler.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "elk/compiler.h"
#include "elk/pass.h"
#include "graph/model_builder.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace elk::compiler {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce)
{
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    const int n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](int i) { hits[i].fetch_add(1); });
    for (int i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPoolTest, InlineWhenSingleThreaded)
{
    util::ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 0);  // no workers: parallel_for runs inline
    int sum = 0;
    pool.parallel_for(100, [&](int i) { sum += i; });  // safe: inline
    EXPECT_EQ(sum, 4950);
}

TEST(ThreadPoolTest, PropagatesExceptions)
{
    util::ThreadPool pool(3);
    EXPECT_THROW(pool.parallel_for(64,
                                   [&](int i) {
                                       if (i == 17) {
                                           throw std::runtime_error("boom");
                                       }
                                   }),
                 std::runtime_error);
}

TEST(ThreadPoolTest, ResolveJobs)
{
    EXPECT_GE(util::ThreadPool::hardware_jobs(), 1);
    EXPECT_EQ(util::ThreadPool::resolve_jobs(0),
              util::ThreadPool::hardware_jobs());
    EXPECT_EQ(util::ThreadPool::resolve_jobs(1), 1);
    EXPECT_EQ(util::ThreadPool::resolve_jobs(6), 6);
}

TEST(ScheduleIrTest, ReorderEditDistanceEmptyPlanIsZero)
{
    ExecutionPlan empty;
    EXPECT_EQ(empty.reorder_edit_distance(), 0.0);
    // Identity order: nothing moved.
    ExecutionPlan identity;
    identity.ops.resize(3);
    identity.preload_order = {0, 1, 2};
    EXPECT_EQ(identity.reorder_edit_distance(), 0.0);
}

class PipelineCompileTest : public ::testing::Test {
  protected:
    PipelineCompileTest()
        : graph_(graph::build_decode_graph(testing::tiny_llm(), 8, 512)),
          cfg_(testing::CompilerHarness::tiny().cfg)
    {
    }

    static CompileOptions
    options(Mode mode)
    {
        CompileOptions opts;
        opts.mode = mode;
        opts.max_orders = 8;
        return opts;
    }

    std::string
    compile_bits(Mode mode, int jobs)
    {
        Compiler comp(graph_, cfg_, nullptr, jobs);
        return comp.compile(options(mode)).plan.serialize_bits();
    }

    graph::Graph graph_;
    hw::ChipConfig cfg_;
};

TEST_F(PipelineCompileTest, ParallelMatchesSerialAllModes)
{
    for (Mode mode : {Mode::kBasic, Mode::kStatic, Mode::kElkDyn,
                      Mode::kElkFull, Mode::kIdeal}) {
        std::string serial = compile_bits(mode, 1);
        std::string parallel = compile_bits(mode, 4);
        EXPECT_EQ(serial, parallel) << mode_name(mode);
        EXPECT_FALSE(serial.empty());
    }
}

TEST_F(PipelineCompileTest, RepeatedCompilesAreIdentical)
{
    Compiler comp(graph_, cfg_);
    // Both compiles share the constructor's analysis; the plan must
    // not drift.
    EXPECT_EQ(comp.compile(options(Mode::kElkFull)).plan.serialize_bits(),
              comp.compile(options(Mode::kElkFull)).plan.serialize_bits());
}

// compile() is documented safe to call concurrently on one Compiler:
// four threads compile four designs on one shared (pooled) compiler
// and each plan matches a serial compile. Run under TSan in CI.
TEST_F(PipelineCompileTest, ConcurrentCompilesMatchSerial)
{
    const std::vector<Mode> modes = {Mode::kBasic, Mode::kStatic,
                                     Mode::kElkDyn, Mode::kElkFull};
    Compiler shared(graph_, cfg_, nullptr, 2);
    std::vector<std::string> bits(modes.size());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < modes.size(); ++t) {
        threads.emplace_back([&, t] {
            bits[t] = shared.compile(options(modes[t])).plan.serialize_bits();
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    for (size_t t = 0; t < modes.size(); ++t) {
        EXPECT_EQ(bits[t], compile_bits(modes[t], 1)) << mode_name(modes[t]);
    }
}

TEST_F(PipelineCompileTest, SerializeBitsDistinguishesPlans)
{
    std::string basic = compile_bits(Mode::kBasic, 1);
    std::string dyn = compile_bits(Mode::kElkDyn, 1);
    EXPECT_NE(basic, dyn);
}

TEST_F(PipelineCompileTest, StatsSurviveThePipelineSplit)
{
    Compiler comp(graph_, cfg_);
    auto result = comp.compile(options(Mode::kElkFull));
    EXPECT_EQ(result.stats.n_ops, graph_.size());
    EXPECT_GT(result.stats.max_plans, 0);
    EXPECT_GT(result.stats.max_fit_window, 0);
    EXPECT_GE(result.stats.orders_tested, 1);
}

// The acceptance check of the parallel pipeline: the quickstart model
// (Llama2-13B decode, batch 32, seq 2048, IPU-POD4) compiled with
// --jobs 8 and --jobs 1 must emit byte-identical ExecutionPlans.
TEST(PipelineQuickstartTest, ParallelAndSerialPlansAreByteIdentical)
{
    auto graph = graph::build_decode_graph(graph::llama2_13b(), 32, 2048);
    auto cfg = hw::ChipConfig::ipu_pod4();
    CompileOptions opts;
    opts.mode = Mode::kElkFull;

    Compiler serial(graph, cfg, nullptr, 1);
    auto serial_plan = serial.compile(opts).plan;

    Compiler parallel(graph, cfg, nullptr, 8);
    auto parallel_plan = parallel.compile(opts).plan;

    EXPECT_EQ(serial_plan.serialize_bits(),
              parallel_plan.serialize_bits());
    EXPECT_EQ(serial_plan.mode, "Elk-Full");
}

}  // namespace
}  // namespace elk::compiler
