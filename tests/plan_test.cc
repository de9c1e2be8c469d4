/**
 * @file
 * Unit tests for partition-plan enumeration: Pareto fronts, metric
 * computation, preload-state plans (the §4.3 trade-off structure).
 */
#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "cost/exec_cost.h"
#include "graph/model_builder.h"
#include "hw/topology.h"
#include "hw/traffic.h"
#include "plan/pareto.h"
#include "plan/plan_enumerator.h"

namespace elk::plan {
namespace {

struct Point {
    uint64_t mem;
    double time;
};

TEST(ParetoTest, KeepsOnlyNonDominated)
{
    std::vector<Point> pts{{100, 1.0}, {50, 2.0}, {80, 1.5},
                           {100, 2.0},  // dominated by {100,1}
                           {40, 3.0}, {60, 1.4}};
    auto front = pareto_front(
        pts, [](const Point& p) { return p.mem; },
        [](const Point& p) { return p.time; });
    // Descending memory, ascending time.
    ASSERT_GE(front.size(), 2u);
    for (size_t i = 1; i < front.size(); ++i) {
        EXPECT_LT(front[i].mem, front[i - 1].mem);
        EXPECT_GT(front[i].time, front[i - 1].time);
    }
    // {80, 1.5} is dominated by {60, 1.4}.
    for (const auto& p : front) {
        EXPECT_FALSE(p.mem == 80 && p.time == 1.5);
    }
}

TEST(ParetoTest, SingletonAndEmpty)
{
    std::vector<Point> empty;
    EXPECT_TRUE(pareto_front(
                    empty, [](const Point& p) { return p.mem; },
                    [](const Point& p) { return p.time; })
                    .empty());
    std::vector<Point> one{{10, 1.0}};
    EXPECT_EQ(pareto_front(
                  one, [](const Point& p) { return p.mem; },
                  [](const Point& p) { return p.time; })
                  .size(),
              1u);
}

TEST(ParetoTest, SkylineMatchesSortedFront)
{
    // Seeded point sets on a coarse grid, so duplicates, equal-memory
    // and equal-time points are common.
    std::mt19937_64 rng(0x5c71);
    int twins = 0;
    for (int round = 0; round < 200; ++round) {
        std::vector<Point> pts(1 + rng() % 40);
        ParetoSkyline<Point> skyline;
        for (Point& p : pts) {
            p = {rng() % 12, static_cast<double>(rng() % 12)};
            skyline.offer(p.mem, p.time, p);
        }
        auto sorted = pareto_front(
            pts, [](const Point& p) { return p.mem; },
            [](const Point& p) { return p.time; });
        auto streamed = skyline.front();
        twins += skyline.has_twin();
        ASSERT_EQ(streamed.size(), sorted.size()) << "round " << round;
        for (size_t i = 0; i < sorted.size(); ++i) {
            EXPECT_EQ(streamed[i].mem, sorted[i].mem) << "round " << round;
            EXPECT_EQ(streamed[i].time, sorted[i].time) << "round " << round;
        }
    }
    EXPECT_GT(twins, 0) << "the sweep must exercise exact ties";
}

class PlanEnumeratorTest : public ::testing::Test {
  protected:
    PlanEnumeratorTest()
    {
        cfg_ = hw::ChipConfig::ipu_pod4();
        topo_ = std::make_unique<hw::Topology>(cfg_);
        traffic_ = std::make_unique<hw::TrafficModel>(*topo_, cfg_);
        ctx_.cfg = &cfg_;
        ctx_.traffic = traffic_.get();
        ctx_.exec_cost = &cost_;
    }

    graph::Operator
    make_matmul(long m, long k, long n)
    {
        graph::Operator op;
        op.kind = graph::OpKind::kMatMul;
        op.name = "mm";
        op.m = m;
        op.k = k;
        op.n = n;
        op.param_bytes = static_cast<uint64_t>(k) * n * 2;
        op.act_in_bytes = static_cast<uint64_t>(m) * k * 2;
        op.act_out_bytes = static_cast<uint64_t>(m) * n * 2;
        graph::finalize_flops(op);
        return op;
    }

    hw::ChipConfig cfg_;
    std::unique_ptr<hw::Topology> topo_;
    std::unique_ptr<hw::TrafficModel> traffic_;
    cost::AnalyticExecCost cost_;
    PlanContext ctx_;
};

TEST_F(PlanEnumeratorTest, FrontIsProperPareto)
{
    auto op = make_matmul(32, 5120, 13824);
    auto front = enumerate_exec_plans(op, ctx_);
    ASSERT_GE(front.size(), 2u) << "expect a nontrivial trade-off";
    for (size_t i = 1; i < front.size(); ++i) {
        EXPECT_LT(front[i].exec_space, front[i - 1].exec_space);
        EXPECT_GT(front[i].time_cost(), front[i - 1].time_cost());
    }
}

TEST_F(PlanEnumeratorTest, PlansFitBudgetAndChip)
{
    auto op = make_matmul(64, 8192, 28672);
    for (const auto& plan : enumerate_exec_plans(op, ctx_)) {
        EXPECT_LE(plan.exec_space, ctx_.sram_budget());
        EXPECT_LE(plan.cores_used(), cfg_.total_cores());
        EXPECT_GE(plan.tile_rows, 1);
        EXPECT_GE(plan.tile_cols, 1);
    }
}

TEST_F(PlanEnumeratorTest, MoreMemoryLessFetchTraffic)
{
    // Paper §3.1/§3.3: larger execution space => fewer inter-core
    // accesses. The largest-memory plan must not fetch more than the
    // smallest-memory plan.
    auto op = make_matmul(32, 5120, 13824);
    auto front = enumerate_exec_plans(op, ctx_);
    ASSERT_GE(front.size(), 2u);
    EXPECT_LE(front.front().fetch_bytes / front.front().exec_space,
              front.back().fetch_bytes / front.back().exec_space +
                  front.back().fetch_bytes);
}

TEST_F(PlanEnumeratorTest, MetricsConsistency)
{
    auto op = make_matmul(32, 5120, 5120);
    ExecPlan plan;
    plan.parts_rows = 8;
    plan.parts_cols = 32;
    plan.parts_k = 8;
    plan.repl_a = 1;
    plan.repl_w = 1;
    ASSERT_TRUE(compute_plan_metrics(op, ctx_, plan));
    EXPECT_EQ(plan.tile_rows, 4);
    EXPECT_EQ(plan.tile_cols, 160);
    EXPECT_EQ(plan.tile_k, 640);
    // Full residency: no on-demand fetch.
    EXPECT_DOUBLE_EQ(plan.fetch_bytes, 0.0);
    // k split => reduction traffic present.
    EXPECT_GT(plan.reduce_bytes, 0.0);
    EXPECT_EQ(plan.group_w, 8);  // all row partitions share the weights
    EXPECT_EQ(plan.group_a, 32);
}

TEST_F(PlanEnumeratorTest, ReplicationReducesSpaceIncreasesFetch)
{
    auto op = make_matmul(32, 5120, 5120);
    ExecPlan full;
    full.parts_rows = 8;
    full.parts_cols = 32;
    full.parts_k = 8;
    full.repl_w = 1;
    ASSERT_TRUE(compute_plan_metrics(op, ctx_, full));
    ExecPlan half = full;
    half.repl_w = 2;
    ASSERT_TRUE(compute_plan_metrics(op, ctx_, half));
    EXPECT_LT(half.exec_space, full.exec_space);
    EXPECT_GT(half.fetch_bytes, full.fetch_bytes);
    EXPECT_GE(half.exec_time, full.exec_time);
}

TEST_F(PlanEnumeratorTest, InfeasiblePlansRejected)
{
    auto op = make_matmul(32, 5120, 5120);
    ExecPlan plan;
    plan.parts_rows = 64;  // > rows
    EXPECT_FALSE(compute_plan_metrics(op, ctx_, plan));

    ExecPlan huge;
    huge.parts_rows = 1;
    huge.parts_cols = 1;
    huge.parts_k = 1;
    // One core cannot hold the whole weight matrix.
    EXPECT_FALSE(compute_plan_metrics(op, ctx_, huge));
}

TEST_F(PlanEnumeratorTest, PreloadPlansSpanMaxToMin)
{
    auto op = make_matmul(32, 5120, 13824);
    auto front = enumerate_exec_plans(op, ctx_);
    const auto& exec = front[0];
    auto preloads = enumerate_preload_plans(op, exec, ctx_);
    ASSERT_GE(preloads.size(), 1u);
    // The largest plan on the front never exceeds the execute-state
    // residency (gamma <= 1/repl_w); broadcast-replication overhead
    // may dominate the literal MaxPreload plan off the front.
    EXPECT_LE(preloads.front().gamma, 1.0 / exec.repl_w + 1e-12);
    // Later plans use less space at higher distribution time (the
    // front is pruned on distribution; the combined time_cost is used
    // by the allocator and need not be monotone).
    for (size_t i = 1; i < preloads.size(); ++i) {
        EXPECT_LT(preloads[i].preload_space,
                  preloads[i - 1].preload_space);
        EXPECT_GT(preloads[i].distribute_time,
                  preloads[i - 1].distribute_time);
    }
    // MinPreload bottoms out at the scatter floor 1/group_w.
    EXPECT_GE(preloads.back().gamma, 1.0 / exec.group_w - 1e-12);
}

TEST_F(PlanEnumeratorTest, NoHbmDataMeansTrivialPreload)
{
    graph::Operator op;
    op.kind = graph::OpKind::kElementwise;
    op.m = 32;
    op.n = 5120;
    op.act_in_bytes = 32 * 5120 * 2;
    op.act_out_bytes = 32 * 5120 * 2;
    graph::finalize_flops(op);
    auto front = enumerate_exec_plans(op, ctx_);
    auto preloads = enumerate_preload_plans(op, front[0], ctx_);
    ASSERT_EQ(preloads.size(), 1u);
    EXPECT_EQ(preloads[0].preload_space, 0u);
    EXPECT_DOUBLE_EQ(preloads[0].distribute_time, 0.0);
}

TEST_F(PlanEnumeratorTest, BatchMatmulKvHasNoBroadcastChoice)
{
    // Decode attention with MHA: every core's KV slice is distinct
    // (w_share_rows = 1), so group_w = 1 and gamma is forced.
    graph::Operator op;
    op.kind = graph::OpKind::kBatchMatMul;
    op.batch = 32 * 40;
    op.m = 1;
    op.k = 128;
    op.n = 2048;
    op.w_share_rows = 1;
    op.stream_bytes = static_cast<uint64_t>(32) * 40 * 128 * 2048 * 2;
    op.act_in_bytes = 32ull * 40 * 128 * 2;
    graph::finalize_flops(op);
    auto front = enumerate_exec_plans(op, ctx_);
    for (const auto& exec : front) {
        EXPECT_EQ(exec.group_w, 1);
        auto preloads = enumerate_preload_plans(op, exec, ctx_);
        EXPECT_EQ(preloads.size(), 1u);
    }
}

TEST_F(PlanEnumeratorTest, GqaSharingEnablesBroadcast)
{
    // GQA: 8 query heads share one KV head -> group_w up to 8.
    graph::Operator op;
    op.kind = graph::OpKind::kBatchMatMul;
    op.batch = 16 * 64;
    op.m = 1;
    op.k = 128;
    op.n = 2048;
    op.w_share_rows = 8;
    op.stream_bytes = static_cast<uint64_t>(16) * 8 * 128 * 2048 * 2;
    op.act_in_bytes = 16ull * 64 * 128 * 2;
    graph::finalize_flops(op);
    // Partitioning finer than the GQA group exposes sharing: with one
    // row per core, 8 cores consume the same KV block.
    ExecPlan fine;
    fine.parts_rows = 1024;
    fine.parts_cols = 4;
    ASSERT_TRUE(compute_plan_metrics(op, ctx_, fine));
    EXPECT_EQ(fine.group_w, 8);
    auto preloads = enumerate_preload_plans(op, fine, ctx_);
    EXPECT_GT(preloads.size(), 1u) << "broadcast choice should exist";

    // The Pareto front itself prefers aligning tiles to the sharing
    // group (tile_rows == w_share), which also exploits GQA: check the
    // fastest plan's per-core KV bytes shrink vs. an MHA-equivalent.
    auto front = enumerate_exec_plans(op, ctx_);
    graph::Operator mha = op;
    mha.w_share_rows = 1;
    mha.stream_bytes = static_cast<uint64_t>(16) * 64 * 128 * 2048 * 2;
    auto mha_front = enumerate_exec_plans(mha, ctx_);
    EXPECT_LT(front.front().w_need, mha_front.front().w_need * 2);
}

}  // namespace
}  // namespace elk::plan
