/**
 * @file
 * Unit tests for the compiler facade: all five designs produce valid
 * plans, a compiler sharing a sim::Machine's analysis compiles the
 * same plans, and the device-program lowering is well-formed.
 */
#include <gtest/gtest.h>

#include <utility>

#include "elk/compiler.h"
#include "elk/device_program.h"
#include "test_helpers.h"

namespace elk::compiler {
namespace {

class CompilerTest : public ::testing::Test {
  protected:
    CompilerTest()
        : graph_(graph::build_decode_graph(testing::tiny_llm(), 8, 512))
    {
        cfg_ = testing::CompilerHarness::tiny().cfg;
        compiler_ = std::make_unique<Compiler>(graph_, cfg_);
    }

    graph::Graph graph_;
    hw::ChipConfig cfg_;
    std::unique_ptr<Compiler> compiler_;
};

TEST_F(CompilerTest, AllModesCompile)
{
    // Candidate preload orders each design evaluates: Elk-Dyn scores
    // only the identity order, Elk-Full all max_orders candidates.
    const std::pair<Mode, int> cases[] = {
        {Mode::kBasic, 0},   {Mode::kStatic, 0}, {Mode::kElkDyn, 1},
        {Mode::kElkFull, 8}, {Mode::kIdeal, 0},
    };
    for (const auto& [mode, orders_tested] : cases) {
        SCOPED_TRACE(mode_name(mode));
        CompileOptions opts;
        opts.mode = mode;
        opts.max_orders = 8;
        CompileResult result = compiler_->compile(opts);
        EXPECT_EQ(result.plan.mode, mode_name(mode));
        EXPECT_EQ(static_cast<int>(result.plan.ops.size()),
                  graph_.size());
        EXPECT_GT(result.plan.est_total_time, 0.0);
        EXPECT_EQ(result.stats.n_ops, graph_.size());
        EXPECT_GT(result.stats.max_plans, 0);
        EXPECT_GT(result.stats.max_fit_window, 0);
        EXPECT_EQ(result.stats.orders_tested, orders_tested);
    }
}

TEST_F(CompilerTest, DeviceProgramWellFormed)
{
    CompileOptions opts;
    opts.mode = Mode::kElkDyn;
    auto result = compiler_->compile(opts);
    DeviceProgram program = build_device_program(result.plan);
    // 2 instructions per op: one preload_async, one execute.
    EXPECT_EQ(program.size(), 2u * graph_.size());
    // Every execute appears in order; preload(i) precedes execute(i).
    std::vector<int> pre_pos(graph_.size(), -1);
    std::vector<int> exe_pos(graph_.size(), -1);
    for (size_t p = 0; p < program.size(); ++p) {
        if (program[p].kind == DeviceInstr::Kind::kPreloadAsync) {
            pre_pos[program[p].op_id] = static_cast<int>(p);
        } else {
            exe_pos[program[p].op_id] = static_cast<int>(p);
        }
    }
    int prev = -1;
    for (int i = 0; i < graph_.size(); ++i) {
        EXPECT_GE(pre_pos[i], 0);
        EXPECT_LT(pre_pos[i], exe_pos[i]);
        EXPECT_GT(exe_pos[i], prev);
        prev = exe_pos[i];
    }
}

TEST_F(CompilerTest, DeviceProgramPrints)
{
    CompileOptions opts;
    opts.mode = Mode::kBasic;
    auto result = compiler_->compile(opts);
    std::string text =
        to_string(build_device_program(result.plan), graph_);
    EXPECT_NE(text.find("preload_async(op=0)"), std::string::npos);
    EXPECT_NE(text.find("execute(op=0)"), std::string::npos);
}

TEST_F(CompilerTest, ElkEstimatesBeatBasic)
{
    CompileOptions basic;
    basic.mode = Mode::kBasic;
    CompileOptions dyn;
    dyn.mode = Mode::kElkDyn;
    auto b = compiler_->compile(basic);
    auto d = compiler_->compile(dyn);
    EXPECT_LT(d.plan.est_total_time, b.plan.est_total_time);
}

TEST_F(CompilerTest, IdealIsLowerBoundEstimate)
{
    CompileOptions ideal;
    ideal.mode = Mode::kIdeal;
    CompileOptions full;
    full.mode = Mode::kElkFull;
    full.max_orders = 8;
    auto i = compiler_->compile(ideal);
    auto f = compiler_->compile(full);
    // Chunk-streamed schedules can beat the classical roofline's
    // serial-preload assumption; keep a generous sanity band.
    EXPECT_LE(i.plan.est_total_time, f.plan.est_total_time * 1.3);
}

TEST_F(CompilerTest, StatsMatchTable2Shape)
{
    CompileOptions opts;
    opts.mode = Mode::kElkFull;
    opts.max_orders = 8;
    auto result = compiler_->compile(opts);
    // Paper Table 2 shape: H small (<= ~6), K >= H, N in the hundreds.
    EXPECT_GE(result.stats.heavy_per_layer, 1);
    EXPECT_LE(result.stats.heavy_per_layer, 8);
    EXPECT_GE(result.stats.n_ops, 40);
    EXPECT_GE(result.stats.max_fit_window, 1);
}

TEST_F(CompilerTest, CompileTimeRecorded)
{
    CompileOptions opts;
    opts.mode = Mode::kElkDyn;
    auto result = compiler_->compile(opts);
    EXPECT_GT(result.compile_seconds, 0.0);
}

// A compiler on a sim::Machine shares the machine's topology and
// traffic model and compiles the same plans as one that builds its
// own analysis from the chip config. That holds for an ideal
// split-fabric machine too (ServingCompiler's Ideal buckets pass
// one): the Static/Elk tuning sweeps still run on the chip's
// non-ideal fabric.
TEST(CompilerAnalysisTest, MachineAnalysisCompilesIdenticalPlans)
{
    graph::Graph graph =
        graph::build_decode_graph(testing::tiny_llm(), 8, 512);
    hw::ChipConfig all_to_all = testing::CompilerHarness::tiny().cfg;
    hw::ChipConfig mesh = all_to_all;
    mesh.topology = hw::TopologyKind::kMesh2D;
    const std::pair<hw::ChipConfig, bool> cases[] = {
        {all_to_all, false}, {mesh, false}, {all_to_all, true}};
    for (const auto& [cfg, ideal] : cases) {
        SCOPED_TRACE(hw::topology_name(cfg.topology) +
                     (ideal ? " ideal" : ""));
        sim::Machine machine(cfg, ideal);
        Compiler own(graph, cfg);
        Compiler shared(graph, machine);
        EXPECT_EQ(shared.context().traffic, &machine.traffic());
        for (Mode mode : {Mode::kBasic, Mode::kStatic, Mode::kElkDyn,
                          Mode::kElkFull, Mode::kIdeal}) {
            CompileOptions opts;
            opts.mode = mode;
            opts.max_orders = 8;
            EXPECT_EQ(shared.compile(opts).plan.serialize_bits(),
                      own.compile(opts).plan.serialize_bits())
                << mode_name(mode);
        }
    }
}

TEST(ModeNameTest, AllNamesDistinct)
{
    std::set<std::string> names;
    for (Mode m : {Mode::kBasic, Mode::kStatic, Mode::kElkDyn,
                   Mode::kElkFull, Mode::kIdeal}) {
        names.insert(mode_name(m));
    }
    EXPECT_EQ(names.size(), 5u);
}

}  // namespace
}  // namespace elk::compiler
