/**
 * @file
 * Property-style tests (parameterized sweeps) over the core
 * invariants: Pareto fronts, network conservation, scheduler
 * feasibility across models/chips, and plan-metric monotonicities.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "elk/compiler.h"
#include "plan/pareto.h"
#include "hw/topology.h"
#include "hw/traffic.h"
#include "runtime/executor.h"
#include "sim/machine.h"
#include "sim/network.h"
#include "test_helpers.h"

namespace elk {
namespace {

// ---------------------------------------------------------------
// Pareto front properties over random point sets.
// ---------------------------------------------------------------

class ParetoProperty : public ::testing::TestWithParam<int> {};

TEST_P(ParetoProperty, FrontIsMinimalAndComplete)
{
    std::mt19937_64 rng(GetParam());
    std::uniform_int_distribution<uint64_t> mem(1, 1000);
    std::uniform_real_distribution<double> time(0.1, 10.0);
    struct P {
        uint64_t m;
        double t;
    };
    std::vector<P> pts;
    for (int i = 0; i < 200; ++i) {
        pts.push_back({mem(rng), time(rng)});
    }
    auto front = plan::pareto_front(
        pts, [](const P& p) { return p.m; },
        [](const P& p) { return p.t; });

    // 1) Front members are mutually non-dominated.
    for (size_t i = 1; i < front.size(); ++i) {
        EXPECT_LT(front[i].m, front[i - 1].m);
        EXPECT_GT(front[i].t, front[i - 1].t);
    }
    // 2) Every input point is dominated by (or equal to) some member.
    for (const auto& p : pts) {
        bool covered = false;
        for (const auto& f : front) {
            if (f.m <= p.m && f.t <= p.t) {
                covered = true;
                break;
            }
        }
        EXPECT_TRUE(covered);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// Reference Pareto sweep that sorts the points themselves — the
/// extraction pareto_front did before it sorted compact keys. Kept
/// here to pin that both keep the same points, duplicates included.
template <typename T, typename MemFn, typename TimeFn>
std::vector<T>
reference_pareto_front(std::vector<T> points, MemFn mem_of, TimeFn time_of)
{
    if (points.empty()) {
        return points;
    }
    std::sort(points.begin(), points.end(), [&](const T& a, const T& b) {
        if (mem_of(a) != mem_of(b)) {
            return mem_of(a) < mem_of(b);
        }
        return time_of(a) < time_of(b);
    });
    std::vector<T> front;
    double best_time = std::numeric_limits<double>::infinity();
    for (auto& p : points) {
        if (time_of(p) < best_time) {
            best_time = time_of(p);
            front.push_back(std::move(p));
        }
    }
    std::reverse(front.begin(), front.end());
    return front;
}

class ParetoTieProperty : public ::testing::TestWithParam<int> {};

TEST_P(ParetoTieProperty, MatchesStructSortIncludingDuplicates)
{
    // Small integer ranges make equal memories, equal times and
    // exact duplicate points common; the payload id tells which of
    // several equal points survives.
    std::mt19937_64 rng(GetParam());
    struct P {
        uint64_t m;
        double t;
        int id;
    };
    for (int size : {1, 2, 7, 16, 17, 40, 300}) {
        std::uniform_int_distribution<uint64_t> mem(1, 6);
        std::uniform_int_distribution<int> time(1, 6);
        std::vector<P> pts;
        for (int i = 0; i < size; ++i) {
            pts.push_back({mem(rng), static_cast<double>(time(rng)), i});
        }
        auto mem_of = [](const P& p) { return p.m; };
        auto time_of = [](const P& p) { return p.t; };
        auto front = plan::pareto_front(pts, mem_of, time_of);
        auto expect = reference_pareto_front(pts, mem_of, time_of);
        SCOPED_TRACE("size " + std::to_string(size));
        ASSERT_EQ(front.size(), expect.size());
        for (size_t i = 0; i < front.size(); ++i) {
            EXPECT_EQ(front[i].m, expect[i].m);
            EXPECT_EQ(front[i].t, expect[i].t);
            EXPECT_EQ(front[i].id, expect[i].id);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoTieProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------
// A Machine built from shared analysis equals one that builds its own.
// ---------------------------------------------------------------

TEST(MachineProperty, SharedAnalysisMatchesOwnAnalysis)
{
    hw::ChipConfig all_to_all = testing::CompilerHarness::tiny().cfg;
    hw::ChipConfig mesh = all_to_all;
    mesh.topology = hw::TopologyKind::kMesh2D;
    mesh.mesh_link_bw = all_to_all.inter_core_link_bw * 4;
    for (const hw::ChipConfig& cfg : {all_to_all, mesh}) {
        SCOPED_TRACE(hw::topology_name(cfg.topology));
        auto topo = std::make_shared<const hw::Topology>(cfg);
        auto traffic = std::make_shared<const hw::TrafficModel>(*topo, cfg);
        for (bool ideal : {false, true}) {
            sim::Machine own(cfg, ideal);
            sim::Machine shared(cfg, topo, traffic, ideal);
            EXPECT_EQ(&shared.topology(), topo.get());
            EXPECT_EQ(&shared.traffic(), traffic.get());
            EXPECT_EQ(shared.capacities(), own.capacities());
            EXPECT_EQ(shared.peer_capacity(), own.peer_capacity());
            EXPECT_EQ(shared.delivery_capacity(), own.delivery_capacity());
            for (int r = 0; r < sim::FlowWeights::kMaxResources; ++r) {
                EXPECT_EQ(shared.preload_weights(1e6, 4e6)[r],
                          own.preload_weights(1e6, 4e6)[r]);
                EXPECT_EQ(shared.peer_weights()[r], own.peer_weights()[r]);
            }
        }
    }
}

// ---------------------------------------------------------------
// Fluid network: work conservation and capacity limits under random
// flow populations.
// ---------------------------------------------------------------

class NetworkProperty : public ::testing::TestWithParam<int> {};

TEST_P(NetworkProperty, CapacityNeverExceededAndWorkConserved)
{
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<double> bytes(1.0, 100.0);
    std::uniform_int_distribution<int> tag(0, 2);
    sim::FluidNetwork net({100.0, 50.0});

    double total_bytes = 0.0;
    for (int i = 0; i < 12; ++i) {
        std::map<int, double> w;
        w[0] = 1.0;
        if (tag(rng) == 0) {
            w[1] = 0.5;
        }
        double b = bytes(rng);
        total_bytes += b;
        net.add_flow(b, std::move(w),
                     static_cast<sim::FlowTag>(tag(rng)));
        EXPECT_LE(net.resource_usage(0), 100.0 * (1 + 1e-9));
        EXPECT_LE(net.resource_usage(1), 50.0 * (1 + 1e-9));
    }

    // Drain and measure delivered bytes on resource 0 (weight 1.0).
    double delivered = 0.0;
    int guard = 0;
    while (net.num_active() > 0 && guard++ < 1000) {
        double dt = net.time_to_next_completion();
        ASSERT_TRUE(std::isfinite(dt));
        delivered += net.resource_usage(0) * dt;
        net.advance(dt);
    }
    EXPECT_EQ(net.num_active(), 0);
    EXPECT_NEAR(delivered, total_bytes, total_bytes * 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------
// Plan enumeration invariants across operator shapes.
// ---------------------------------------------------------------

struct ShapeCase {
    long m, k, n;
};

class PlanProperty : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(PlanProperty, FrontInvariants)
{
    auto h = testing::CompilerHarness::tiny();
    graph::Operator op;
    op.kind = graph::OpKind::kMatMul;
    op.name = "sweep";
    op.m = GetParam().m;
    op.k = GetParam().k;
    op.n = GetParam().n;
    op.param_bytes = static_cast<uint64_t>(op.k) * op.n * 2;
    op.act_in_bytes = static_cast<uint64_t>(op.m) * op.k * 2;
    op.act_out_bytes = static_cast<uint64_t>(op.m) * op.n * 2;
    graph::finalize_flops(op);

    auto front = plan::enumerate_exec_plans(op, h.ctx);
    ASSERT_FALSE(front.empty());
    for (size_t i = 0; i < front.size(); ++i) {
        const auto& p = front[i];
        EXPECT_LE(p.exec_space, h.ctx.sram_budget());
        EXPECT_LE(p.cores_used(), h.cfg.total_cores());
        EXPECT_GE(p.exec_time, p.compute_time);
        EXPECT_GE(p.fetch_bytes, 0.0);
        if (i > 0) {
            EXPECT_LT(p.exec_space, front[i - 1].exec_space);
            EXPECT_GT(p.time_cost(), front[i - 1].time_cost());
        }
        auto preloads = plan::enumerate_preload_plans(op, p, h.ctx);
        ASSERT_FALSE(preloads.empty());
        // Preload space never exceeds the execute-state residency;
        // the scatter floor applies when W is shared across cores
        // (chunk-streamed plans buffer only 1/repl_w).
        for (const auto& q : preloads) {
            EXPECT_LE(q.preload_space, p.w_resident() + 1);
            if (p.group_w > 1) {
                EXPECT_GE(q.gamma, 1.0 / p.group_w - 1e-12);
            } else {
                EXPECT_GE(q.gamma, 1.0 / p.repl_w - 1e-12);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PlanProperty,
    ::testing::Values(ShapeCase{8, 512, 1536}, ShapeCase{8, 512, 512},
                      ShapeCase{64, 256, 256}, ShapeCase{1, 512, 4096},
                      ShapeCase{8, 1536, 512}, ShapeCase{16, 64, 64}));

// ---------------------------------------------------------------
// End-to-end invariants across batch sizes and windows.
// ---------------------------------------------------------------

struct E2ECase {
    int batch;
    int seq;
    int window;
};

class EndToEndProperty : public ::testing::TestWithParam<E2ECase> {};

TEST_P(EndToEndProperty, CompiledPlansRunAndFit)
{
    auto base = testing::CompilerHarness::tiny();
    graph::Graph graph = graph::build_decode_graph(
        testing::tiny_llm_gqa(), GetParam().batch, GetParam().seq);
    compiler::Compiler comp(graph, base.cfg);
    compiler::CompileOptions opts;
    opts.mode = compiler::Mode::kElkFull;
    opts.max_window = GetParam().window;
    opts.max_orders = 6;
    auto result = comp.compile(opts);

    sim::Machine machine(base.cfg);
    auto run =
        runtime::run_plan(machine, graph, result.plan, comp.context());
    EXPECT_GT(run.total_time, 0.0);
    EXPECT_FALSE(run.memory_exceeded)
        << "peak " << run.peak_sram_per_core << " budget "
        << base.cfg.usable_sram_per_core();
    EXPECT_NEAR(run.preload_only + run.execute_only + run.overlapped,
                run.total_time, run.total_time * 1e-6 + 1e-9);
    EXPECT_LE(run.hbm_util, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EndToEndProperty,
    ::testing::Values(E2ECase{4, 256, 8}, E2ECase{8, 512, 8},
                      E2ECase{16, 512, 16}, E2ECase{8, 1024, 4},
                      E2ECase{2, 128, 2}));

}  // namespace
}  // namespace elk
