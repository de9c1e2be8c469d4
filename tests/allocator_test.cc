/**
 * @file
 * Unit tests for the §4.3 cost-aware memory allocator.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "elk/memory_allocator.h"
#include "test_helpers.h"

namespace elk::compiler {
namespace {

class AllocatorTest : public ::testing::Test {
  protected:
    AllocatorTest() : h_(testing::CompilerHarness::tiny()) {}

    /// Finds a matmul op id (they have real plan fronts).
    int
    find_matmul() const
    {
        for (const auto& op : h_.graph.ops()) {
            if (op.kind == graph::OpKind::kMatMul) {
                return op.id;
            }
        }
        return 0;
    }

    /// A few matmul op ids for live sets.
    std::vector<int>
    find_matmuls(int count) const
    {
        std::vector<int> ids;
        for (const auto& op : h_.graph.ops()) {
            if (op.kind == graph::OpKind::kMatMul &&
                static_cast<int>(ids.size()) < count) {
                ids.push_back(op.id);
            }
        }
        return ids;
    }

    testing::CompilerHarness h_;
};

TEST_F(AllocatorTest, EmptyLiveSetPicksFastestPlan)
{
    MemoryAllocator alloc(*h_.library);
    int op = find_matmul();
    auto choice =
        alloc.allocate(op, {}, {}, {}, h_.ctx.sram_budget());
    ASSERT_TRUE(choice.feasible);
    EXPECT_EQ(choice.exec_idx, 0);
    EXPECT_DOUBLE_EQ(choice.exec_time,
                     h_.library->exec_plans(op)[0].exec_time);
}

TEST_F(AllocatorTest, ResultAlwaysFitsBudget)
{
    MemoryAllocator alloc(*h_.library);
    auto live = find_matmuls(4);
    int cur = live.back();
    live.pop_back();
    std::vector<int> exec_idx(live.size(), 0);
    std::vector<int> floor(live.size(), 0);
    for (uint64_t budget :
         {h_.ctx.sram_budget(), h_.ctx.sram_budget() / 2,
          h_.ctx.sram_budget() / 4}) {
        auto choice = alloc.allocate(cur, live, exec_idx, floor, budget);
        if (choice.feasible) {
            EXPECT_LE(choice.used_space, budget);
        }
    }
}

TEST_F(AllocatorTest, SmallerBudgetNeverFaster)
{
    MemoryAllocator alloc(*h_.library);
    auto live = find_matmuls(3);
    int cur = live.back();
    live.pop_back();
    std::vector<int> exec_idx(live.size(), 0);
    std::vector<int> floor(live.size(), 0);
    auto big =
        alloc.allocate(cur, live, exec_idx, floor, h_.ctx.sram_budget());
    auto small = alloc.allocate(cur, live, exec_idx, floor,
                                h_.ctx.sram_budget() / 3);
    if (big.feasible && small.feasible) {
        EXPECT_LE(big.exec_time + big.total_distribute_time,
                  small.exec_time + small.total_distribute_time + 1e-12);
    }
}

TEST_F(AllocatorTest, InfeasibleWhenBudgetTiny)
{
    MemoryAllocator alloc(*h_.library);
    int cur = find_matmul();
    auto choice = alloc.allocate(cur, {}, {}, {}, 16);
    EXPECT_FALSE(choice.feasible);
}

TEST_F(AllocatorTest, FloorRespected)
{
    MemoryAllocator alloc(*h_.library);
    auto live = find_matmuls(2);
    int cur = live.back();
    live.pop_back();
    // Force the live op's preload to start at its smallest plan.
    int last = static_cast<int>(
                   h_.library->preload_plans(live[0], 0).size()) -
               1;
    auto choice = alloc.allocate(cur, live, {0}, {last},
                                 h_.ctx.sram_budget());
    ASSERT_TRUE(choice.feasible);
    EXPECT_GE(choice.preload_idx[0], last);
}

TEST_F(AllocatorTest, DowngradesPreloadBeforeCripplingExec)
{
    // With a moderately tight budget the allocator should trade the
    // cheap preload-space of live ops before taking a large execution
    // slowdown: verify the chosen exec plan is not the very slowest
    // when budget still allows better.
    MemoryAllocator alloc(*h_.library);
    auto live = find_matmuls(3);
    int cur = live.back();
    live.pop_back();
    std::vector<int> exec_idx(live.size(), 0);
    std::vector<int> floor(live.size(), 0);
    uint64_t budget = h_.ctx.sram_budget();
    auto choice = alloc.allocate(cur, live, exec_idx, floor, budget);
    ASSERT_TRUE(choice.feasible);
    int slowest =
        static_cast<int>(h_.library->exec_plans(cur).size()) - 1;
    if (slowest > 0) {
        EXPECT_LT(choice.exec_idx, std::max(1, slowest));
    }
}

TEST_F(AllocatorTest, UsedSpaceMatchesChosenPlans)
{
    // Seeded random live sets, exec plans, floors and budgets: the
    // footprint the allocator reports (kept incrementally across its
    // downgrades) must equal the sum recomputed from the plans it
    // chose, and feasibility must be exactly "fits the budget".
    MemoryAllocator alloc(*h_.library);
    const int n = h_.graph.size();
    const uint64_t full = h_.ctx.sram_budget();
    std::mt19937_64 rng(20241018);
    auto draw = [&](uint64_t bound) {
        return static_cast<int>(rng() % bound);
    };
    int feasible = 0;
    constexpr int kTrials = 400;
    for (int trial = 0; trial < kTrials; ++trial) {
        int cur = draw(n);
        std::vector<int> live, exec_idx, floor;
        for (int k = draw(13); k > 0; --k) {
            int j = draw(n);
            int e = draw(h_.library->exec_plans(j).size());
            live.push_back(j);
            exec_idx.push_back(e);
            floor.push_back(draw(h_.library->preload_plans(j, e).size()));
        }
        uint64_t budget = full / 16 + rng() % full;
        SCOPED_TRACE("trial " + std::to_string(trial));
        auto choice = alloc.allocate(cur, live, exec_idx, floor, budget);

        uint64_t expect =
            h_.library->exec_plans(cur)[choice.exec_idx].exec_space;
        ASSERT_EQ(choice.preload_idx.size(), live.size());
        for (size_t j = 0; j < live.size(); ++j) {
            const auto& front =
                h_.library->preload_plans(live[j], exec_idx[j]);
            ASSERT_GE(choice.preload_idx[j], floor[j]);
            ASSERT_LT(choice.preload_idx[j],
                      static_cast<int>(front.size()));
            expect += front[choice.preload_idx[j]].preload_space;
        }
        EXPECT_EQ(choice.used_space, expect);
        EXPECT_EQ(choice.feasible, choice.used_space <= budget);
        feasible += choice.feasible;
    }
    // The draws must exercise both outcomes.
    EXPECT_GT(feasible, 0);
    EXPECT_LT(feasible, kTrials);
}

TEST_F(AllocatorTest, FloorFitNeedsNoDowngrade)
{
    // The scheduler skips the allocator while op i at its fastest
    // exec plan plus every live op at its floor fits the budget. This
    // is the oracle for that skip: on any such draw the allocator
    // must return exactly that selection, untouched.
    MemoryAllocator alloc(*h_.library);
    const int n = h_.graph.size();
    const uint64_t full = h_.ctx.sram_budget();
    std::mt19937_64 rng(20261018);
    auto draw = [&](uint64_t bound) {
        return static_cast<int>(rng() % bound);
    };
    constexpr int kTrials = 400;
    for (int trial = 0; trial < kTrials; ++trial) {
        int cur = draw(n);
        const auto& exec_front = h_.library->exec_plans(cur);
        uint64_t floor_space = exec_front[0].exec_space;
        std::vector<int> live, exec_idx, floor;
        for (int k = draw(13); k > 0; --k) {
            int j = draw(n);
            int e = draw(h_.library->exec_plans(j).size());
            const auto& front = h_.library->preload_plans(j, e);
            int f = draw(front.size());
            live.push_back(j);
            exec_idx.push_back(e);
            floor.push_back(f);
            floor_space += front[f].preload_space;
        }
        // Every fourth draw sits exactly on the budget.
        uint64_t budget =
            trial % 4 == 0 ? floor_space : floor_space + rng() % full;
        SCOPED_TRACE("trial " + std::to_string(trial));
        auto choice = alloc.allocate(cur, live, exec_idx, floor, budget);
        ASSERT_TRUE(choice.feasible);
        EXPECT_EQ(choice.exec_idx, 0);
        EXPECT_EQ(choice.preload_idx, floor);
        EXPECT_EQ(choice.exec_time, exec_front[0].exec_time);
        EXPECT_EQ(choice.used_space, floor_space);
    }
}

}  // namespace
}  // namespace elk::compiler
