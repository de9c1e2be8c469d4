/**
 * @file
 * Golden digests of the §4.2 inductive scheduler itself: every config
 * hashes ExecutionPlan::serialize_bits() (or a nullopt marker) of one
 * InductiveScheduler::schedule call and compares it with the digest
 * recorded in tests/data/scheduler_digests.txt, so a scheduler rewrite
 * that shifts any plan bit fails with the config that moved.
 *
 * Configs cover the tiny test LLM and the quickstart's Llama2-13B
 * decode step, each on an all-to-all and on a 2D-mesh chip, under
 *  - every (max_window, overhead_weight) pair of the schedule-elk
 *    sweep on the identity order;
 *  - every generate_candidate_orders candidate (full model and the
 *    §4.4 scoring prefix);
 *  - seeded near-identity permutations (local swaps, mostly feasible)
 *    and seeded random permutations (mostly infeasible -> nullopt);
 *  - limit_ops prefixes.
 * A second test replays the tiny setups' configs and the Llama2-13B
 * identity-order configs through util::ThreadPool at 4 jobs on each
 * setup's one scheduler: the schedule-elk sweep calls one scheduler
 * concurrently, so it must stay reentrant.
 *
 * The golden file is rewritten, instead of checked, by running
 *   ELK_RECORD_SCHEDULER_DIGESTS=<file> ./scheduler_golden_test
 * — only for a change that is meant to alter scheduled plans.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "elk/inductive_scheduler.h"
#include "elk/pass.h"
#include "elk/preload_reorder.h"
#include "graph/model_builder.h"
#include "test_helpers.h"
#include "util/bits.h"
#include "util/thread_pool.h"

namespace elk::compiler {
namespace {

/// One scheduler call: which setup, which preload order, which knobs.
struct Config {
    std::string name;
    int setup = 0;
    int order = 0;  ///< index into the setup's order list.
    ScheduleOptions opts;
};

/// A compiled-context harness, the one scheduler every config on it
/// shares, and the preload orders drawn for it.
struct SchedSetup {
    std::string name;
    std::unique_ptr<testing::CompilerHarness> harness;
    std::unique_ptr<InductiveScheduler> sched;
    std::vector<std::vector<int>> orders;
    std::vector<std::string> order_names;
};

/// The schedule-elk pass's (max_window, overhead_weight) sweep.
std::vector<ScheduleOptions>
sweep_options()
{
    std::vector<ScheduleOptions> out;
    for (int w = ScheduleOptions{}.max_window; w >= 1; w = w * 2 / 3) {
        for (double weight : {0.0, 0.25, 1.0, 4.0, 1e9}) {
            ScheduleOptions opts;
            opts.max_window = w;
            opts.overhead_weight = weight;
            out.push_back(opts);
        }
        if (w == 1) {
            break;
        }
    }
    return out;
}

/// Uniform index in [0, bound) from the raw generator (portable across
/// standard libraries, unlike std::uniform_int_distribution).
int
draw(std::mt19937_64& rng, int bound)
{
    return static_cast<int>(rng() % static_cast<uint64_t>(bound));
}

/// Identity order with @p swaps random swaps of positions at most
/// @p reach apart.
std::vector<int>
near_identity(int n, int swaps, int reach, std::mt19937_64& rng)
{
    std::vector<int> order(n);
    for (int i = 0; i < n; ++i) {
        order[i] = i;
    }
    for (int s = 0; s < swaps && n > 1; ++s) {
        int a = draw(rng, n);
        int b = std::min(n - 1, a + 1 + draw(rng, reach));
        std::swap(order[a], order[b]);
    }
    return order;
}

/// Fisher-Yates shuffle of the identity order.
std::vector<int>
random_order(int n, std::mt19937_64& rng)
{
    std::vector<int> order(n);
    for (int i = 0; i < n; ++i) {
        order[i] = i;
    }
    for (int i = n - 1; i > 0; --i) {
        std::swap(order[i], order[draw(rng, i + 1)]);
    }
    return order;
}

std::unique_ptr<SchedSetup>
make_setup(const std::string& name, graph::Graph graph,
           hw::ChipConfig chip, uint64_t seed)
{
    auto setup = std::make_unique<SchedSetup>();
    setup->name = name;
    setup->harness = std::make_unique<testing::CompilerHarness>(
        std::move(graph), chip);
    const PlanLibrary& library = *setup->harness->library;
    setup->sched = std::make_unique<InductiveScheduler>(library);
    const int n = library.graph().size();

    auto candidates = generate_candidate_orders(
        library, CompileOptions{}.max_orders, nullptr);
    for (size_t c = 0; c < candidates.size(); ++c) {
        setup->orders.push_back(candidates[c]);
        setup->order_names.push_back(c == 0 ? "identity"
                                            : "cand" + std::to_string(c));
    }
    std::mt19937_64 rng(seed);
    for (int k = 0; k < 4; ++k) {
        setup->orders.push_back(near_identity(n, n / 8, 1 + 2 * k, rng));
        setup->order_names.push_back("near" + std::to_string(k));
    }
    for (int k = 0; k < 2; ++k) {
        setup->orders.push_back(random_order(n, rng));
        setup->order_names.push_back("random" + std::to_string(k));
    }
    return setup;
}

/// The §4.4 scoring prefix: operators of the first two layers.
int
prefix_ops(const graph::Graph& graph)
{
    int ops = 0;
    for (const auto& op : graph.ops()) {
        if (op.layer >= 0 && op.layer < CompileOptions{}.score_layers) {
            ops = op.id + 1;
        }
    }
    return ops > 0 ? ops : graph.size();
}

std::vector<Config>
make_configs(const std::vector<std::unique_ptr<SchedSetup>>& setups)
{
    std::vector<Config> out;
    auto add = [&](int s, int order, const ScheduleOptions& opts) {
        std::ostringstream name;
        name << setups[s]->name << "/" << setups[s]->order_names[order]
             << "/w" << opts.max_window << "/x" << opts.overhead_weight
             << "/l" << opts.limit_ops;
        out.push_back({name.str(), s, order, opts});
    };
    const std::vector<ScheduleOptions> sweep = sweep_options();
    for (int s = 0; s < static_cast<int>(setups.size()); ++s) {
        const SchedSetup& setup = *setups[s];
        const int n = setup.harness->graph.size();
        const int prefix = prefix_ops(setup.harness->graph);
        // Identity order under every sweep pair.
        for (const ScheduleOptions& opts : sweep) {
            add(s, 0, opts);
        }
        // Every other order at the default and a narrow window, on the
        // full model and on the scoring prefix.
        for (int o = 1; o < static_cast<int>(setup.orders.size()); ++o) {
            for (int w : {ScheduleOptions{}.max_window, 5}) {
                for (int limit : {0, prefix}) {
                    ScheduleOptions opts;
                    opts.max_window = w;
                    opts.limit_ops = limit;
                    add(s, o, opts);
                }
            }
        }
        // limit_ops prefixes of the identity and the first candidate.
        for (int limit : {1, n / 3, n - 1}) {
            for (int o : {0, 1}) {
                ScheduleOptions opts;
                opts.limit_ops = limit;
                opts.overhead_weight = 0.25;
                add(s, o, opts);
            }
        }
    }
    return out;
}

/// Digest of one scheduler call: FNV-1a of the plan's bits, or a
/// marker for an infeasible order.
std::string
run_config(const std::vector<std::unique_ptr<SchedSetup>>& setups,
           const Config& cfg)
{
    const SchedSetup& setup = *setups[cfg.setup];
    auto plan = setup.sched->schedule(setup.orders[cfg.order], cfg.opts);
    if (!plan) {
        return "nullopt";
    }
    const std::string bits = plan->serialize_bits();
    util::Fnv1a h;
    h.mix(bits.data(), bits.size());
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

class SchedulerGoldenTest : public ::testing::Test {
  protected:
    static void
    SetUpTestSuite()
    {
        hw::ChipConfig tiny = testing::CompilerHarness::tiny().cfg;
        hw::ChipConfig pod4 = hw::ChipConfig::ipu_pod4();
        uint64_t seed = 0x5eed;
        for (auto topology :
             {hw::TopologyKind::kAllToAll, hw::TopologyKind::kMesh2D}) {
            const std::string topo = topology == hw::TopologyKind::kMesh2D
                                         ? "mesh"
                                         : "a2a";
            tiny.topology = topology;
            pod4.topology = topology;
            setups_.push_back(make_setup(
                "tiny-" + topo,
                graph::build_decode_graph(testing::tiny_llm(), 8, 512),
                tiny, seed++));
            setups_.push_back(make_setup(
                "llama2-13b-" + topo,
                graph::build_decode_graph(graph::llama2_13b(), 32, 2048),
                pod4, seed++));
        }
        configs_ = make_configs(setups_);
    }

    static void
    TearDownTestSuite()
    {
        setups_.clear();
        configs_.clear();
    }

    static std::vector<std::unique_ptr<SchedSetup>> setups_;
    static std::vector<Config> configs_;
};

std::vector<std::unique_ptr<SchedSetup>> SchedulerGoldenTest::setups_;
std::vector<Config> SchedulerGoldenTest::configs_;

TEST_F(SchedulerGoldenTest, PlansMatchRecordedDigests)
{
    const std::string golden_path =
        std::string(ELK_TEST_DATA_DIR) + "/scheduler_digests.txt";
    const char* record_path = std::getenv("ELK_RECORD_SCHEDULER_DIGESTS");
    if (record_path != nullptr) {
        std::ofstream out(record_path);
        out << "# FNV-1a digests of ExecutionPlan::serialize_bits() (or "
               "nullopt), one per\n# SchedulerGoldenTest config: "
               "<setup/order/window/weight/limit> <digest>.\n"
               "# Rewrite with ELK_RECORD_SCHEDULER_DIGESTS=<file> "
               "./scheduler_golden_test\n";
        for (const Config& cfg : configs_) {
            out << cfg.name << " " << run_config(setups_, cfg) << "\n";
        }
        ASSERT_TRUE(out.good()) << "could not write " << record_path;
        return;
    }

    auto golden = load_golden_digests(golden_path);
    ASSERT_EQ(golden.size(), configs_.size())
        << "golden digest file " << golden_path
        << " must carry one digest per config";
    int feasible = 0;
    for (const Config& cfg : configs_) {
        ASSERT_EQ(golden.count(cfg.name), 1u)
            << "no golden digest for config " << cfg.name;
        std::string got = run_config(setups_, cfg);
        EXPECT_EQ(got, golden[cfg.name])
            << "golden digest mismatch at config " << cfg.name;
        feasible += got != "nullopt";
    }
    // The config set must exercise both outcomes.
    EXPECT_GT(feasible, 0);
    EXPECT_LT(feasible, static_cast<int>(configs_.size()));
}

TEST_F(SchedulerGoldenTest, ConcurrentCallsMatchRecordedDigests)
{
    if (std::getenv("ELK_RECORD_SCHEDULER_DIGESTS") != nullptr) {
        GTEST_SKIP() << "recording run";
    }
    auto golden = load_golden_digests(std::string(ELK_TEST_DATA_DIR) +
                                      "/scheduler_digests.txt");
    // Every config of the tiny setups plus the Llama2-13B identity
    // order: each setup's one scheduler, called from 4 workers and the
    // caller at once.
    std::vector<const Config*> picked;
    for (const Config& cfg : configs_) {
        if (setups_[cfg.setup]->name.rfind("tiny", 0) == 0 ||
            cfg.order == 0) {
            picked.push_back(&cfg);
        }
    }
    std::vector<std::string> got(picked.size());
    util::ThreadPool pool(4);
    pool.parallel_for(static_cast<int>(picked.size()), [&](int k) {
        got[k] = run_config(setups_, *picked[k]);
    });
    for (size_t k = 0; k < picked.size(); ++k) {
        EXPECT_EQ(got[k], golden[picked[k]->name])
            << "concurrent digest mismatch at config " << picked[k]->name;
    }
}

}  // namespace
}  // namespace elk::compiler
