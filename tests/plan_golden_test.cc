/**
 * @file
 * Golden digests of the §4.3 plan library's per-operator fronts: every
 * config hashes every field of every ExecPlan that
 * plan::enumerate_exec_plans returns for one operator on one chip,
 * plus every field of each of those plans' preload fronts
 * (plan::enumerate_preload_plans), and compares the digest with the
 * one recorded in tests/data/plan_front_digests.txt. An enumerator
 * rewrite that moves, drops or swaps any front point fails with the
 * config that moved.
 *
 * Setups: IPU-POD4 on the all-to-all and on the 2D-mesh fabric at its
 * default SRAM, POD4 all-to-all at a halved and a doubled SRAM budget,
 * and a 64-core single chip (all-to-all and mesh, plus a halved
 * budget). Operators on each setup:
 *  - every distinct operator signature of the Fig. 17 LLMs' decode
 *    graphs (POD4, default SRAM) or of the small test LLMs (64-core
 *    chip), and of a prefill forward graph;
 *  - one hand-built operator of every OpKind, including a GQA-shared
 *    and a streamed-KV BatchMatMul, and the elementwise and softmax
 *    shapes whose fronts hold exact (memory, time) ties;
 *  - seeded random operators of every kind.
 * A second test replays one setup's operators through
 * plan::enumerate_exec_fronts on a 4-job util::ThreadPool.
 *
 * The golden file is rewritten, instead of checked, by running
 *   ELK_RECORD_PLAN_DIGESTS=<file> ./plan_golden_test
 * — only for a change that is meant to alter plan fronts.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cost/exec_cost.h"
#include "graph/model_builder.h"
#include "hw/topology.h"
#include "hw/traffic.h"
#include "plan/plan_enumerator.h"
#include "test_helpers.h"
#include "util/bits.h"
#include "util/thread_pool.h"

namespace elk::plan {
namespace {

/// One chip, its fabric model and the plan context around them.
struct ChipSetup {
    std::string name;
    hw::ChipConfig cfg;
    std::unique_ptr<hw::Topology> topo;
    std::unique_ptr<hw::TrafficModel> traffic;
    cost::AnalyticExecCost cost;
    PlanContext ctx;
    /// Operators enumerated on this chip, with unique config names.
    std::vector<graph::Operator> ops;
    std::vector<std::string> op_names;
};

/// One enumerate_exec_plans call: which chip, which operator.
struct Config {
    std::string name;
    int setup = 0;
    int op = 0;
};

std::unique_ptr<ChipSetup>
make_chip(const std::string& name, hw::ChipConfig cfg)
{
    auto setup = std::make_unique<ChipSetup>();
    setup->name = name;
    setup->cfg = cfg;
    setup->topo = std::make_unique<hw::Topology>(setup->cfg);
    setup->traffic =
        std::make_unique<hw::TrafficModel>(*setup->topo, setup->cfg);
    setup->ctx.cfg = &setup->cfg;
    setup->ctx.traffic = setup->traffic.get();
    setup->ctx.exec_cost = &setup->cost;
    return setup;
}

/// Adds @p op under @p name unless an operator with the same shape
/// (the plan library's signature fields) is already on @p setup.
void
add_op(ChipSetup& setup, std::set<std::string>& seen,
       const std::string& name, const graph::Operator& op)
{
    std::ostringstream key;
    key << static_cast<int>(op.kind) << ":" << op.batch << ":" << op.m
        << ":" << op.n << ":" << op.k << ":" << op.param_bytes << ":"
        << op.stream_bytes << ":" << op.w_share_rows << ":"
        << op.dtype_bytes;
    if (!seen.insert(key.str()).second) {
        return;
    }
    setup.ops.push_back(op);
    setup.op_names.push_back(name);
}

void
add_graph(ChipSetup& setup, std::set<std::string>& seen,
          const std::string& prefix, const graph::Graph& graph)
{
    for (const auto& op : graph.ops()) {
        add_op(setup, seen, prefix + "/" + op.name, op);
    }
}

graph::Operator
matmul(long b, long m, long k, long n)
{
    graph::Operator op;
    op.kind = graph::OpKind::kMatMul;
    op.batch = b;
    op.m = m;
    op.k = k;
    op.n = n;
    op.param_bytes = static_cast<uint64_t>(k) * n * 2;
    op.act_in_bytes = static_cast<uint64_t>(b) * m * k * 2;
    op.act_out_bytes = static_cast<uint64_t>(b) * m * n * 2;
    graph::finalize_flops(op);
    return op;
}

/// Attention BatchMatMul streaming a KV cache: @p share query rows
/// consume one KV block (1 = MHA, > 1 = GQA sharing).
graph::Operator
attention(long b, long m, long k, long n, long share)
{
    graph::Operator op;
    op.kind = graph::OpKind::kBatchMatMul;
    op.batch = b;
    op.m = m;
    op.k = k;
    op.n = n;
    op.w_share_rows = share;
    op.stream_bytes = static_cast<uint64_t>(b / share) * k * n * 2;
    op.act_in_bytes = static_cast<uint64_t>(b) * m * k * 2;
    op.act_out_bytes = static_cast<uint64_t>(b) * m * n * 2;
    graph::finalize_flops(op);
    return op;
}

/// Row-wise vector operator of @p kind over [b*m, n].
graph::Operator
vector_op(graph::OpKind kind, long b, long m, long n, uint64_t params)
{
    graph::Operator op;
    op.kind = kind;
    op.batch = b;
    op.m = m;
    op.n = n;
    op.param_bytes = params;
    op.act_in_bytes = static_cast<uint64_t>(b) * m * n * 2;
    op.act_out_bytes = static_cast<uint64_t>(b) * m * n * 2;
    graph::finalize_flops(op);
    return op;
}

/// Uniform pick from @p values (portable across standard libraries).
long
pick(std::mt19937_64& rng, const std::vector<long>& values)
{
    return values[rng() % values.size()];
}

/// Seeded operator of a random kind; @p scale bounds the dimensions
/// (1 = sized for a 64-core chip, 8 = for IPU-POD4).
graph::Operator
random_op(std::mt19937_64& rng, long scale)
{
    const long b = pick(rng, {1, 2, 8, 32});
    const long m = pick(rng, {1, 3, 16, 96});
    const long n = scale * pick(rng, {40, 64, 96, 256, 384, 1000});
    const long k = scale * pick(rng, {48, 64, 128, 320, 512});
    switch (rng() % 6) {
        case 0:
            return matmul(b, m, k, n);
        case 1: {
            const long heads = pick(rng, {4, 8, 16});
            return attention(b * heads, m, k / scale, n,
                             pick(rng, {1, 2, heads}));
        }
        case 2:
            return vector_op(graph::OpKind::kElementwise, 1, b * m, n,
                             rng() % 2 ? static_cast<uint64_t>(n) * 2 : 0);
        case 3:
            return vector_op(graph::OpKind::kSoftmax, b, m, n, 0);
        case 4:
            return vector_op(graph::OpKind::kLayerNorm, 1, b * m, n,
                             static_cast<uint64_t>(n) * 4);
        default:
            return vector_op(graph::OpKind::kEmbedding, 1, b * m, n,
                             static_cast<uint64_t>(n) * 2 *
                                 pick(rng, {1, 4, 16}));
    }
}

/// One hand-built operator of every kind, sized by @p scale, with
/// the GQA and streamed-KV attention variants.
void
add_kind_ops(ChipSetup& setup, std::set<std::string>& seen, long scale)
{
    add_op(setup, seen, "kind/matmul",
           matmul(1, 4 * scale, 64 * scale, 160 * scale));
    add_op(setup, seen, "kind/bmm-mha-kv",
           attention(4 * scale * 5, 1, 128, 256 * scale, 1));
    add_op(setup, seen, "kind/bmm-gqa-kv",
           attention(2 * scale * 8, 1, 128, 256 * scale, 8));
    add_op(setup, seen, "kind/bmm-prefill",
           attention(scale * 5, 16, 64, 16 * scale, 1));
    add_op(setup, seen, "kind/elementwise",
           vector_op(graph::OpKind::kElementwise, 1, 4 * scale,
                     640 * scale, 0));
    add_op(setup, seen, "kind/softmax",
           vector_op(graph::OpKind::kSoftmax, 160 * scale, 1, 256 * scale,
                     0));
    add_op(setup, seen, "kind/layernorm",
           vector_op(graph::OpKind::kLayerNorm, 1, 4 * scale, 640 * scale,
                     1280ull * scale * 2));
    add_op(setup, seen, "kind/embedding",
           vector_op(graph::OpKind::kEmbedding, 1, 4 * scale, 64 * scale,
                     512ull * scale * 64 * scale * 2));
}

/// The exact-tie shapes: a Llama2-13B decode residual add and a
/// decode attention softmax (IPU-POD4 sizes).
void
add_tie_ops(ChipSetup& setup, std::set<std::string>& seen)
{
    add_op(setup, seen, "tie/elementwise-b1-m32-n5120",
           vector_op(graph::OpKind::kElementwise, 1, 32, 5120, 0));
    add_op(setup, seen, "tie/softmax-b1280-m1-n2048",
           vector_op(graph::OpKind::kSoftmax, 1280, 1, 2048, 0));
}

void
add_random_ops(ChipSetup& setup, std::set<std::string>& seen,
               uint64_t seed, int count, long scale)
{
    std::mt19937_64 rng(seed);
    for (int i = 0; i < count; ++i) {
        graph::Operator op = random_op(rng, scale);
        add_op(setup, seen,
               "rand" + std::to_string(i) + "/" +
                   graph::op_kind_name(op.kind),
               op);
    }
}

/// IPU-POD4 setups: with @p graphs, the Fig. 17 LLM graphs (which
/// need the default SRAM budget or more) ahead of the hand-built and
/// seeded operators.
std::unique_ptr<ChipSetup>
make_pod4(const std::string& name, hw::TopologyKind topology,
          uint64_t sram, bool graphs, uint64_t seed)
{
    hw::ChipConfig cfg = hw::ChipConfig::ipu_pod4();
    cfg.topology = topology;
    cfg.sram_per_core = sram;
    auto setup = make_chip(name, cfg);
    std::set<std::string> seen;
    if (graphs) {
        add_graph(*setup, seen, "llama2-13b",
                  graph::build_decode_graph(graph::llama2_13b(), 32, 2048));
        add_graph(*setup, seen, "llama2-70b",
                  graph::build_decode_graph(graph::llama2_70b(), 16, 4096));
        add_graph(*setup, seen, "gemma2-27b",
                  graph::build_decode_graph(graph::gemma2_27b(), 32, 2048));
        add_graph(*setup, seen, "opt-30b",
                  graph::build_decode_graph(graph::opt_30b(), 32, 2048));
        add_graph(*setup, seen, "llama2-13b-fwd",
                  graph::build_forward_graph(graph::llama2_13b(), 2, 256));
    }
    add_kind_ops(*setup, seen, 8);
    add_tie_ops(*setup, seen);
    add_random_ops(*setup, seen, seed, 16, 8);
    return setup;
}

/// The 64-core single chip of the compiler test harness, with
/// @p random seeded operators (some do not fit a reduced budget).
std::unique_ptr<ChipSetup>
make_small(const std::string& name, hw::TopologyKind topology,
           uint64_t sram, uint64_t seed, int random)
{
    hw::ChipConfig cfg = testing::CompilerHarness::tiny().cfg;
    cfg.topology = topology;
    cfg.sram_per_core = sram;
    auto setup = make_chip(name, cfg);
    std::set<std::string> seen;
    add_graph(*setup, seen, "tiny",
              graph::build_decode_graph(testing::tiny_llm(), 8, 512));
    add_graph(*setup, seen, "tiny-gqa",
              graph::build_decode_graph(testing::tiny_llm_gqa(), 8, 512));
    add_graph(*setup, seen, "tiny-fwd",
              graph::build_forward_graph(testing::tiny_llm(), 2, 64));
    add_kind_ops(*setup, seen, 1);
    add_random_ops(*setup, seen, seed, random, 1);
    return setup;
}

void
mix_exec(util::Fnv1a& h, const ExecPlan& p)
{
    h.mix_value(p.parts_rows);
    h.mix_value(p.parts_cols);
    h.mix_value(p.parts_k);
    h.mix_value(p.repl_a);
    h.mix_value(p.repl_w);
    h.mix_value(p.tile_rows);
    h.mix_value(p.tile_cols);
    h.mix_value(p.tile_k);
    h.mix_value(p.a_need);
    h.mix_value(p.w_need);
    h.mix_value(p.out_bytes);
    h.mix_value(p.group_a);
    h.mix_value(p.group_w);
    h.mix_value(p.exec_space);
    h.mix_value(p.fetch_bytes);
    h.mix_value(p.reduce_bytes);
    h.mix_value(p.hbm_stream_bytes);
    h.mix_value(p.compute_time);
    h.mix_value(p.exec_time);
    h.mix_value(p.fabric_time);
}

void
mix_preload(util::Fnv1a& h, const PreloadPlan& p)
{
    h.mix_value(p.gamma);
    h.mix_value(p.preload_space);
    h.mix_value(p.distribute_bytes);
    h.mix_value(p.distribute_time);
    h.mix_value(p.noc_delivery_bytes);
    h.mix_value(p.dram_fraction);
    h.mix_value(p.delivery_overhead_time);
}

/// Digest of one operator's execute-state front and the preload
/// front of each of its plans.
std::string
front_digest(const graph::Operator& op, const PlanContext& ctx,
             const std::vector<ExecPlan>& front)
{
    util::Fnv1a h;
    h.mix_value(front.size());
    for (const ExecPlan& exec : front) {
        mix_exec(h, exec);
        const std::vector<PreloadPlan> preloads =
            enumerate_preload_plans(op, exec, ctx);
        h.mix_value(preloads.size());
        for (const PreloadPlan& p : preloads) {
            mix_preload(h, p);
        }
    }
    return h.hex();
}

/// "<config name> <digest>" lines; '#' starts a comment line.
std::map<std::string, std::string>
load_golden_digests(const std::string& path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::istringstream fields(line);
        std::string name, hex;
        if (fields >> name >> hex) {
            out[name] = hex;
        }
    }
    return out;
}

class PlanGoldenTest : public ::testing::Test {
  protected:
    static void
    SetUpTestSuite()
    {
        using hw::TopologyKind;
        const uint64_t pod_sram = hw::ChipConfig{}.sram_per_core;
        const uint64_t small_sram =
            testing::CompilerHarness::tiny().cfg.sram_per_core;
        setups_.push_back(make_pod4("pod4-a2a", TopologyKind::kAllToAll,
                                    pod_sram, true, 0x91a7));
        setups_.push_back(make_pod4("pod4-mesh", TopologyKind::kMesh2D,
                                    pod_sram, true, 0x91a8));
        setups_.push_back(make_pod4("pod4-a2a-sram312k",
                                    TopologyKind::kAllToAll, pod_sram / 2,
                                    false, 0x91a9));
        setups_.push_back(make_pod4("pod4-a2a-sram1248k",
                                    TopologyKind::kAllToAll, pod_sram * 2,
                                    true, 0x91aa));
        setups_.push_back(make_small("small-a2a", TopologyKind::kAllToAll,
                                     small_sram, 0x51a1, 16));
        setups_.push_back(make_small("small-mesh", TopologyKind::kMesh2D,
                                     small_sram, 0x51a2, 16));
        setups_.push_back(make_small("small-a2a-sram128k",
                                     TopologyKind::kAllToAll,
                                     small_sram / 2, 0x51a3, 0));
        for (int s = 0; s < static_cast<int>(setups_.size()); ++s) {
            for (int o = 0; o < static_cast<int>(setups_[s]->ops.size());
                 ++o) {
                configs_.push_back(
                    {setups_[s]->name + "/" + setups_[s]->op_names[o], s,
                     o});
            }
        }
    }

    static void
    TearDownTestSuite()
    {
        setups_.clear();
        configs_.clear();
    }

    static std::string
    run_config(const Config& cfg)
    {
        const ChipSetup& setup = *setups_[cfg.setup];
        const graph::Operator& op = setup.ops[cfg.op];
        return front_digest(op, setup.ctx,
                            enumerate_exec_plans(op, setup.ctx));
    }

    static std::vector<std::unique_ptr<ChipSetup>> setups_;
    static std::vector<Config> configs_;
};

std::vector<std::unique_ptr<ChipSetup>> PlanGoldenTest::setups_;
std::vector<Config> PlanGoldenTest::configs_;

const char kGoldenFile[] = "/plan_front_digests.txt";

TEST_F(PlanGoldenTest, FrontsMatchRecordedDigests)
{
    const std::string golden_path =
        std::string(ELK_TEST_DATA_DIR) + kGoldenFile;
    const char* record_path = std::getenv("ELK_RECORD_PLAN_DIGESTS");
    if (record_path != nullptr) {
        std::ofstream out(record_path);
        out << "# FNV-1a digests of every ExecPlan field of "
               "enumerate_exec_plans plus every\n# PreloadPlan field "
               "of each plan's preload front, one per PlanGoldenTest\n"
               "# config: <setup/operator> <digest>.\n"
               "# Rewrite with ELK_RECORD_PLAN_DIGESTS=<file> "
               "./plan_golden_test\n";
        for (const Config& cfg : configs_) {
            out << cfg.name << " " << run_config(cfg) << "\n";
        }
        ASSERT_TRUE(out.good()) << "could not write " << record_path;
        return;
    }

    auto golden = load_golden_digests(golden_path);
    ASSERT_EQ(golden.size(), configs_.size())
        << "golden digest file " << golden_path
        << " must carry one digest per config";
    for (const Config& cfg : configs_) {
        ASSERT_EQ(golden.count(cfg.name), 1u)
            << "no golden digest for config " << cfg.name;
        EXPECT_EQ(run_config(cfg), golden[cfg.name])
            << "golden digest mismatch at config " << cfg.name;
    }
}

TEST_F(PlanGoldenTest, PooledFrontsMatchRecordedDigests)
{
    if (std::getenv("ELK_RECORD_PLAN_DIGESTS") != nullptr) {
        GTEST_SKIP() << "recording run";
    }
    auto golden = load_golden_digests(std::string(ELK_TEST_DATA_DIR) +
                                      kGoldenFile);
    // The first setup's operators, as PlanLibrary enumerates a graph's
    // signatures: one enumerate_exec_fronts call on 4 workers plus the
    // caller.
    const ChipSetup& setup = *setups_[0];
    std::vector<const graph::Operator*> ops;
    for (const graph::Operator& op : setup.ops) {
        ops.push_back(&op);
    }
    util::ThreadPool pool(4);
    const auto fronts = enumerate_exec_fronts(ops, setup.ctx, &pool);
    ASSERT_EQ(fronts.size(), ops.size());
    for (size_t o = 0; o < ops.size(); ++o) {
        const std::string name = setup.name + "/" + setup.op_names[o];
        EXPECT_EQ(front_digest(*ops[o], setup.ctx, fronts[o]), golden[name])
            << "pooled digest mismatch at config " << name;
    }
}

}  // namespace
}  // namespace elk::plan
