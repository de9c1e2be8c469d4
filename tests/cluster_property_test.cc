/**
 * @file
 * Property tests for cluster routing and the trace generators.
 *
 * Conservation: over seeded Poisson / bursty / session traces crossed
 * with every router policy, each request is routed to exactly one
 * replica, every routed request completes, and the per-replica token
 * counts sum to the cluster roll-up — no request is lost, duplicated,
 * or double-counted by any policy.
 *
 * Golden digests: seeded multi-replica serves on the tiny chip hash
 * ClusterReport::serialize_bits() and compare it with the digest
 * recorded in tests/data/cluster_digests.txt. The configs cross the
 * three trace families with every router policy, KV migration on and
 * off, prefill tiers, SLO scheduling with chunked prefill and
 * KV-locality claiming, and 1-6 replicas, so any change to routing,
 * replica serving or the roll-up that moves a bit fails with the
 * config that moved. The file is rewritten, instead of checked, by
 *   ELK_RECORD_CLUSTER_DIGESTS=<file> ./cluster_property_test
 * — only for a change that is meant to alter cluster serves.
 *
 * Trace-generator backfill (PR 7): ArrivalTrace::bursty() with burst
 * factor 1 is Poisson element-by-element, and make_session_trace()
 * stays sorted and platform-stable at its degenerate edges.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "elk/plan_cache.h"
#include "elk/serving_compiler.h"
#include "runtime/cluster.h"
#include "runtime/server.h"
#include "test_helpers.h"
#include "util/bits.h"

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

class ClusterPropertyTest : public ::testing::Test {
  protected:
    static constexpr int kSeq = 128;

    compiler::ServingCompiler
    make_compiler(compiler::GraphKind kind)
    {
        compiler::CompileOptions copts;
        copts.mode = compiler::Mode::kElkFull;
        copts.max_orders = 6;
        compiler::ServingCompiler::Options sopts;
        sopts.kind = kind;
        sopts.op_id_offset =
            kind == compiler::GraphKind::kPrefill
                ? compiler::ServingCompiler::kPrefillIdOffset
                : 0;
        return compiler::ServingCompiler(testing::tiny_llm(), kSeq,
                                         tiny_chip(), copts, &cache_,
                                         /*jobs=*/1, sopts);
    }

    /// KV + prefix serving options (session traces carry prefixes,
    /// and affinity routing requires prefix_sharing).
    runtime::ServerOptions
    server_options() const
    {
        runtime::ServerOptions sopts;
        sopts.max_batch = 4;
        sopts.max_prefill_batch = 2;
        sopts.max_prompt_len = kSeq;
        sopts.kv_bytes_per_token =
            graph::kv_bytes_per_token(testing::tiny_llm());
        sopts.kv_budget =
            4 * kSeq * sopts.kv_bytes_per_token / 64;
        sopts.prefix_sharing = true;
        return sopts;
    }

    /// The three seeded trace families the properties quantify over.
    std::vector<std::vector<runtime::Request>>
    traces(uint64_t seed) const
    {
        std::vector<std::vector<runtime::Request>> all;
        auto poisson = runtime::make_request_trace(
            runtime::ArrivalTrace::poisson(14, 2500.0, seed), 2,
            /*prefill_frac=*/0.7, /*high_frac=*/0.2, seed);
        runtime::tag_prompt_lengths(poisson, kSeq, 24.0, seed);
        all.push_back(std::move(poisson));

        auto bursty = runtime::make_request_trace(
            runtime::ArrivalTrace::bursty(14, 2500.0, 3.0, seed), 2,
            /*prefill_frac=*/0.8, /*high_frac=*/0.0, seed);
        runtime::tag_prompt_lengths(bursty, kSeq, 24.0, seed);
        all.push_back(std::move(bursty));

        runtime::SessionTraceOptions so;
        so.sessions = 6;
        so.rate_per_s = 1500.0;
        so.mean_turns = 2.5;
        so.think_time_s = 1e-3;
        so.decode_tokens = 2;
        so.max_prompt_len = kSeq;
        so.prompt_mean_len = 24.0;
        so.prefix_population = 3;
        so.prefix_mean_len = 32.0;
        all.push_back(runtime::make_session_trace(so, seed));
        return all;
    }

    compiler::PlanCache cache_;
};

// Every request routes to exactly one in-range replica, and the
// routed counts partition the trace — for every policy, every trace
// family, several seeds and replica counts.
TEST_F(ClusterPropertyTest, RoutingPartitionsEveryTrace)
{
    sim::Machine machine(tiny_chip());
    for (uint64_t seed : {3u, 17u, 91u}) {
        for (auto& trace : traces(seed)) {
            for (auto policy :
                 {runtime::RouterPolicy::kRoundRobin,
                  runtime::RouterPolicy::kLeastLoaded,
                  runtime::RouterPolicy::kSessionAffinity}) {
                for (int n : {1, 2, 4}) {
                    runtime::ClusterOptions copts;
                    copts.replicas = n;
                    copts.router = policy;
                    copts.server = server_options();
                    runtime::Cluster cluster(machine, copts);
                    auto routed = cluster.route(trace);
                    ASSERT_EQ(routed.size(), trace.size());
                    for (int d : routed) {
                        ASSERT_GE(d, 0);
                        ASSERT_LT(d, n);
                    }
                    // Pure function: routing twice is identical.
                    ASSERT_EQ(routed, cluster.route(trace))
                        << runtime::router_policy_name(policy);
                }
            }
        }
    }
}

// Conservation through a real serve: completions == arrivals on every
// replica, the routed counts sum to the trace size, and the roll-up
// token count equals both the replica sum and the trace's own decode
// token demand.
TEST_F(ClusterPropertyTest, ServeConservesRequestsAndTokens)
{
    auto dc = make_compiler(compiler::GraphKind::kDecode);
    auto pc = make_compiler(compiler::GraphKind::kPrefill);
    auto prefill = [&](int b, int len) { return pc.program(b, len); };
    auto decode = [&](int b) { return dc.program(b); };

    for (auto& trace : traces(29)) {
        int64_t demand = 0;
        for (const auto& r : trace) {
            demand += r.decode_tokens;
        }
        for (auto policy :
             {runtime::RouterPolicy::kRoundRobin,
              runtime::RouterPolicy::kLeastLoaded,
              runtime::RouterPolicy::kSessionAffinity}) {
            runtime::ClusterOptions copts;
            copts.replicas = 3;
            copts.router = policy;
            copts.server = server_options();
            copts.migrate_kv = true;
            runtime::Cluster cluster(dc.machine(), copts);
            auto rep = cluster.serve(trace, prefill, decode);

            EXPECT_EQ(rep.requests, static_cast<int>(trace.size()));
            EXPECT_EQ(rep.routed, rep.requests);  // no tier split
            EXPECT_EQ(std::accumulate(rep.routed_per_replica.begin(),
                                      rep.routed_per_replica.end(), 0),
                      rep.routed);
            int64_t tokens = 0;
            int completed = 0;
            for (size_t i = 0; i < rep.replica_reports.size(); ++i) {
                const auto& r = rep.replica_reports[i];
                // Every routed request completed on its replica.
                EXPECT_EQ(r.requests, rep.routed_per_replica[i]);
                tokens += r.tokens;
                completed += r.requests;
            }
            EXPECT_EQ(completed, rep.requests);
            EXPECT_EQ(rep.tokens, tokens);
            EXPECT_EQ(rep.tokens, demand)
                << runtime::router_policy_name(policy);
        }
    }
}

// With a prefill tier the split is exact: routed == requests +
// (prefill requests that decode), and conservation still holds.
TEST_F(ClusterPropertyTest, TierSplitConservesRequests)
{
    sim::Machine machine(tiny_chip());
    for (auto& trace : traces(41)) {
        int splits = 0;
        for (const auto& r : trace) {
            if (r.phase == runtime::Phase::kPrefill &&
                r.decode_tokens > 0) {
                ++splits;
            }
        }
        runtime::ClusterOptions copts;
        copts.replicas = 4;
        copts.prefill_replicas = 2;
        copts.server = server_options();
        runtime::Cluster cluster(machine, copts);
        auto routed = cluster.route(trace);
        ASSERT_EQ(routed.size(), trace.size());
        // route() reports the token-producing half: a split request's
        // decode half always lands in the decode tier.
        for (size_t i = 0; i < trace.size(); ++i) {
            if (trace[i].phase == runtime::Phase::kPrefill &&
                trace[i].decode_tokens > 0) {
                EXPECT_GE(routed[i], copts.prefill_replicas);
            }
        }
        (void)splits;
    }
}

// ---------------------------------------------------------------------------
// Golden cluster digests

/// One recorded cluster serve: which trace family, which options.
struct GoldenConfig {
    std::string name;
    int family = 0;  ///< index into ClusterPropertyTest::traces().
    runtime::ClusterOptions opts;
};

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

TEST_F(ClusterPropertyTest, ServesMatchRecordedDigests)
{
    const char* families[] = {"poisson", "bursty", "session"};
    std::vector<GoldenConfig> configs;
    auto add = [&](int family, runtime::RouterPolicy policy,
                   double token_time, int replicas, int prefill_replicas,
                   bool migrate, bool slo) {
        GoldenConfig cfg;
        cfg.family = family;
        cfg.opts.replicas = replicas;
        cfg.opts.prefill_replicas = prefill_replicas;
        cfg.opts.router = policy;
        cfg.opts.router_token_time_s = token_time;
        cfg.opts.migrate_kv = migrate;
        cfg.opts.server = server_options();
        if (slo) {
            cfg.opts.server.slo = true;
            cfg.opts.server.tenants = 2;
            cfg.opts.server.preempt_budget = 2;
            cfg.opts.server.prefill_chunk = 32;
            cfg.opts.server.kv_locality = true;
        }
        std::ostringstream name;
        name << families[family] << "/"
             << runtime::router_policy_name(policy)
             << (token_time > 0.0 ? "-clock" : "") << "/n" << replicas
             << "/p" << prefill_replicas << "/kv" << migrate << "/slo"
             << slo;
        cfg.name = name.str();
        configs.push_back(cfg);
    };
    const runtime::RouterPolicy policies[] = {
        runtime::RouterPolicy::kRoundRobin,
        runtime::RouterPolicy::kLeastLoaded,
        runtime::RouterPolicy::kSessionAffinity};
    for (int f = 0; f < 3; ++f) {
        for (auto policy : policies) {
            for (bool migrate : {false, true}) {
                for (int n = 1; n <= 6; ++n) {
                    add(f, policy, 0.0, n, 0, migrate, false);
                }
                // Prefill tiers, 1-3 prefill chips.
                for (auto [n, p] : {std::pair{2, 1}, std::pair{4, 2},
                                    std::pair{5, 1}, std::pair{6, 3}}) {
                    add(f, policy, 0.0, n, p, migrate, false);
                }
            }
            // SLO scheduling, chunked prefill and KV-locality claiming.
            for (int n = 1; n <= 6; ++n) {
                add(f, policy, 0.0, n, 0, true, true);
            }
            add(f, policy, 0.0, 6, 2, true, true);
        }
        // Least-loaded's virtual free-at clock.
        for (int n : {2, 5}) {
            add(f, runtime::RouterPolicy::kLeastLoaded, 2e-5, n, 0, true,
                false);
        }
        add(f, runtime::RouterPolicy::kLeastLoaded, 2e-5, 6, 2, true,
            true);
    }

    // The trace families, plus an SLO-tagged copy of each (two
    // tenants, a uniform deadline).
    auto plain = traces(61);
    auto tagged = plain;
    for (auto& trace : tagged) {
        runtime::tag_tenants(trace, 2, /*seed=*/61);
        runtime::tag_deadlines(trace, /*slo_s=*/1e-3);
    }

    auto dc = make_compiler(compiler::GraphKind::kDecode);
    auto pc = make_compiler(compiler::GraphKind::kPrefill);
    auto prefill = [&](int b, int len) { return pc.program(b, len); };
    auto decode = [&](int b) { return dc.program(b); };
    auto run = [&](const GoldenConfig& cfg) {
        runtime::Cluster cluster(dc.machine(), cfg.opts);
        const std::string bits =
            cluster
                .serve(cfg.opts.server.slo ? tagged[cfg.family]
                                           : plain[cfg.family],
                       prefill, decode)
                .serialize_bits();
        util::Fnv1a h;
        h.mix(bits.data(), bits.size());
        return h.hex();
    };

    const char* record_path = std::getenv("ELK_RECORD_CLUSTER_DIGESTS");
    if (record_path != nullptr) {
        std::ofstream out(record_path);
        out << "# FNV-1a digests of ClusterReport::serialize_bits(), one "
               "per golden\n# cluster config: "
               "<trace/policy/replicas/prefill tier/migrate/slo> "
               "<digest>.\n"
               "# Rewrite with ELK_RECORD_CLUSTER_DIGESTS=<file> "
               "./cluster_property_test\n";
        for (const GoldenConfig& cfg : configs) {
            out << cfg.name << " " << run(cfg) << "\n";
        }
        ASSERT_TRUE(out.good()) << "could not write " << record_path;
        return;
    }

    const std::string golden_path =
        std::string(ELK_TEST_DATA_DIR) + "/cluster_digests.txt";
    auto golden = load_golden_digests(golden_path);
    ASSERT_EQ(golden.size(), configs.size())
        << "golden digest file " << golden_path
        << " must carry one digest per config";
    for (const GoldenConfig& cfg : configs) {
        ASSERT_EQ(golden.count(cfg.name), 1u)
            << "no golden digest for config " << cfg.name;
        EXPECT_EQ(run(cfg), golden[cfg.name])
            << "golden digest mismatch at config " << cfg.name;
    }
}

// ---------------------------------------------------------------------------
// Trace-generator backfill (PR 7)

// Burst factor 1 is not merely distributed like Poisson — it IS
// poisson(n, rate, seed), element-by-element, bit-for-bit.
TEST(ArrivalTraceTest, BurstyFactorOneIsPoissonExactly)
{
    for (uint64_t seed : {1u, 7u, 123u}) {
        for (double rate : {100.0, 2500.0}) {
            auto p = runtime::ArrivalTrace::poisson(50, rate, seed);
            auto b = runtime::ArrivalTrace::bursty(50, rate, 1.0, seed);
            ASSERT_EQ(p.size(), b.size());
            for (size_t i = 0; i < p.size(); ++i) {
                EXPECT_EQ(p[i], b[i]) << "element " << i;
            }
        }
    }
}

TEST(SessionTraceTest, DegenerateEdgesAreSortedAndStable)
{
    // One session, one turn, zero think-time: a single full-length
    // prefill request at its arrival instant.
    runtime::SessionTraceOptions one;
    one.sessions = 1;
    one.rate_per_s = 100.0;
    one.mean_turns = 1.0;
    one.max_prompt_len = 64;
    auto single = runtime::make_session_trace(one, 5);
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0].phase, runtime::Phase::kPrefill);
    EXPECT_EQ(single[0].prefix_id, -1);
    EXPECT_GE(single[0].arrival, 0.0);

    // Zero sessions: an empty trace, not a crash.
    runtime::SessionTraceOptions none;
    none.max_prompt_len = 64;
    EXPECT_TRUE(runtime::make_session_trace(none, 5).empty());

    // Zero think-time, many turns: every trace is sorted by arrival
    // (same-instant turns must not break the Server's sorted-arrivals
    // contract) and identical across calls (platform-stable draws).
    runtime::SessionTraceOptions tight;
    tight.sessions = 8;
    tight.rate_per_s = 500.0;
    tight.mean_turns = 4.0;
    tight.think_time_s = 0.0;
    tight.max_prompt_len = 64;
    tight.prompt_mean_len = 12.0;
    tight.prefix_population = 2;
    tight.prefix_mean_len = 16.0;
    for (uint64_t seed : {2u, 19u}) {
        auto trace = runtime::make_session_trace(tight, seed);
        EXPECT_FALSE(trace.empty());
        EXPECT_TRUE(std::is_sorted(
            trace.begin(), trace.end(),
            [](const runtime::Request& a, const runtime::Request& b) {
                return a.arrival < b.arrival;
            }));
        for (const auto& r : trace) {
            EXPECT_EQ(r.phase, runtime::Phase::kPrefill);
            EXPECT_GE(r.prompt_len, 1);
            EXPECT_LE(r.prompt_len, 64);
            if (r.prefix_id >= 0) {
                EXPECT_GE(r.prefix_len, 1);
                EXPECT_LT(r.prefix_len, r.prompt_len);
            }
        }
        auto again = runtime::make_session_trace(tight, seed);
        ASSERT_EQ(trace.size(), again.size());
        for (size_t i = 0; i < trace.size(); ++i) {
            EXPECT_EQ(trace[i].arrival, again[i].arrival);
            EXPECT_EQ(trace[i].prompt_len, again[i].prompt_len);
            EXPECT_EQ(trace[i].prefix_id, again[i].prefix_id);
            EXPECT_EQ(trace[i].prefix_len, again[i].prefix_len);
        }
    }
}

}  // namespace
}  // namespace elk
