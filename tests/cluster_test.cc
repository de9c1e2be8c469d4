/**
 * @file
 * Cluster-scale serving tests: the hw::Interconnect cost model (ring /
 * full-mesh hop math, transfer pricing), the deterministic router
 * policies on crafted arrival patterns, cross-chip KV migration with
 * priced interconnect stalls, the disaggregated prefill-tier /
 * decode-tier split, the 1-replica round-robin bit-identity anchor
 * across all five design modes, the program-source contract of the
 * parallel replica serves, and death tests for cluster
 * misconfiguration.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "elk/plan_cache.h"
#include "elk/serving_compiler.h"
#include "graph/model_builder.h"
#include "hw/interconnect.h"
#include "runtime/cluster.h"
#include "runtime/server.h"
#include "test_helpers.h"

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

// ---------------------------------------------------------------------------
// hw::Interconnect: the chip-to-chip cost model

TEST(InterconnectTest, RingHopsAreMinCyclicDistance)
{
    hw::InterconnectConfig cfg;
    cfg.kind = hw::InterconnectKind::kRing;
    cfg.link_bw = 100e9;
    hw::Interconnect ring(cfg, 6);
    EXPECT_EQ(ring.hops(0, 0), 0);
    EXPECT_EQ(ring.hops(0, 1), 1);
    EXPECT_EQ(ring.hops(0, 3), 3);  // either way around is 3
    EXPECT_EQ(ring.hops(0, 4), 2);  // the short way wraps
    EXPECT_EQ(ring.hops(5, 0), 1);
    EXPECT_EQ(ring.hops(1, 5), 2);
}

TEST(InterconnectTest, FullMeshIsOneHop)
{
    hw::InterconnectConfig cfg;
    cfg.kind = hw::InterconnectKind::kFullMesh;
    cfg.link_bw = 100e9;
    hw::Interconnect mesh(cfg, 8);
    for (int d = 1; d < 8; ++d) {
        EXPECT_EQ(mesh.hops(0, d), 1);
    }
    EXPECT_EQ(mesh.hops(3, 3), 0);
}

TEST(InterconnectTest, TransferPricesLatencyPlusBandwidth)
{
    hw::InterconnectConfig cfg;
    cfg.kind = hw::InterconnectKind::kRing;
    cfg.link_bw = 1e9;
    cfg.hop_latency_s = 1e-6;
    hw::Interconnect ring(cfg, 4);
    // 2 hops (0 -> 2): 2 us of latency + 1 GB at 1 GB/s.
    EXPECT_DOUBLE_EQ(ring.transfer_seconds(0, 2, 1000000000ull),
                     2e-6 + 1.0);
    // Local transfers are free regardless of size.
    EXPECT_DOUBLE_EQ(ring.transfer_seconds(1, 1, 1u << 30), 0.0);
    // Link traffic multiplies by the hop count.
    EXPECT_EQ(ring.link_bytes(0, 2, 4096u), 8192u);
    EXPECT_EQ(ring.link_bytes(0, 0, 4096u), 0u);
}

TEST(InterconnectDeathTest, RejectsBadConfig)
{
    hw::InterconnectConfig cfg;
    cfg.link_bw = 100e9;
    EXPECT_DEATH(hw::Interconnect(cfg, 0), "at least one chip");
    hw::InterconnectConfig unresolved;
    unresolved.link_bw = 0.0;
    EXPECT_DEATH(hw::Interconnect(unresolved, 2), "resolved");
    hw::InterconnectConfig negative;
    negative.link_bw = 100e9;
    negative.hop_latency_s = -1.0;
    EXPECT_DEATH(hw::Interconnect(negative, 2), "hop latency");
    hw::Interconnect ok(cfg, 2);
    EXPECT_DEATH(ok.hops(0, 2), "out of range");
}

// ---------------------------------------------------------------------------
// The serving fixture

class ClusterServingTest : public ::testing::Test {
  protected:
    static constexpr int kSeq = 128;

    compiler::ServingCompiler
    make_compiler(compiler::GraphKind kind, compiler::Mode mode)
    {
        compiler::CompileOptions copts;
        copts.mode = mode;
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

    /// Machine-total KV bytes per token for the tiny test model.
    uint64_t
    token_bytes() const
    {
        return graph::kv_bytes_per_token(testing::tiny_llm());
    }

    /// ServerOptions with KV modeling + prefix sharing on and room
    /// for a few full-length segments per core.
    runtime::ServerOptions
    prefix_options() const
    {
        runtime::ServerOptions sopts;
        sopts.max_batch = 4;
        sopts.max_prefill_batch = 2;
        sopts.max_prompt_len = kSeq;
        sopts.kv_bytes_per_token = token_bytes();
        sopts.kv_budget = 4 * kSeq * token_bytes() / 64;
        sopts.prefix_sharing = true;
        return sopts;
    }

    /// Plain (KV-free) varlen serving options.
    runtime::ServerOptions
    plain_options() const
    {
        runtime::ServerOptions sopts;
        sopts.max_batch = 4;
        sopts.max_prefill_batch = 2;
        sopts.max_prompt_len = kSeq;
        return sopts;
    }

    /// A trace of @p n prompts all carrying prefix id @p pid.
    std::vector<runtime::Request>
    shared_prefix_trace(int n, int pid, int prefix_len, int prompt_len,
                        int decode_tokens) const
    {
        std::vector<runtime::Request> trace;
        for (int i = 0; i < n; ++i) {
            runtime::Request r;
            r.arrival = i * 1e-4;
            r.phase = runtime::Phase::kPrefill;
            r.decode_tokens = decode_tokens;
            r.prompt_len = prompt_len;
            r.prefix_id = pid;
            r.prefix_len = prefix_len;
            trace.push_back(r);
        }
        return trace;
    }

    compiler::PlanCache cache_;
};

// The acceptance anchor: a 1-replica round-robin cluster routes the
// trace to replica 0 unchanged, so its replica report reproduces the
// single-chip Server bit-for-bit — across all five design modes, on
// a mixed varlen trace.
TEST_F(ClusterServingTest, OneReplicaRoundRobinIsBitIdenticalAcrossModes)
{
    auto mixed = runtime::make_request_trace(
        runtime::ArrivalTrace::poisson(10, 2500.0, 7), 3,
        /*prefill_frac=*/0.7, /*high_frac=*/0.25, 7);
    runtime::tag_prompt_lengths(mixed, kSeq, 32.0, 7);
    for (auto mode :
         {compiler::Mode::kBasic, compiler::Mode::kStatic,
          compiler::Mode::kElkDyn, compiler::Mode::kElkFull,
          compiler::Mode::kIdeal}) {
        auto dc = make_compiler(compiler::GraphKind::kDecode, mode);
        auto pc = make_compiler(compiler::GraphKind::kPrefill, mode);
        auto prefill = [&](int b, int len) {
            return pc.program(b, len);
        };
        auto decode = [&](int b) { return dc.program(b); };

        runtime::Server server(dc.machine(), plain_options());
        auto single = server.serve(mixed, prefill, decode);

        runtime::ClusterOptions copts;
        copts.replicas = 1;
        copts.router = runtime::RouterPolicy::kRoundRobin;
        copts.server = plain_options();
        runtime::Cluster cluster(dc.machine(), copts);
        auto clustered = cluster.serve(mixed, prefill, decode);

        ASSERT_EQ(clustered.replica_reports.size(), 1u);
        EXPECT_EQ(single.serialize_bits(),
                  clustered.replica_reports[0].serialize_bits())
            << compiler::mode_name(mode);
        EXPECT_EQ(clustered.tokens, single.tokens);
        EXPECT_EQ(clustered.makespan, single.makespan);
        EXPECT_EQ(clustered.util_skew, 0.0);
        EXPECT_EQ(clustered.kv_migrations, 0);
    }
}

// ---------------------------------------------------------------------------
// Router policies on crafted patterns (route() is a pure function)

TEST_F(ClusterServingTest, RoundRobinCyclesArrivalOrder)
{
    sim::Machine machine(tiny_chip());
    runtime::ClusterOptions copts;
    copts.replicas = 3;
    copts.server = plain_options();
    runtime::Cluster cluster(machine, copts);
    auto trace = runtime::prefill_requests(
        runtime::ArrivalTrace::closed_loop(7), 2);
    EXPECT_EQ(cluster.route(trace),
              (std::vector<int>{0, 1, 2, 0, 1, 2, 0}));
}

TEST_F(ClusterServingTest, LeastLoadedBalancesAssignedWork)
{
    sim::Machine machine(tiny_chip());
    runtime::ClusterOptions copts;
    copts.replicas = 2;
    copts.router = runtime::RouterPolicy::kLeastLoaded;
    copts.server = plain_options();
    runtime::Cluster cluster(machine, copts);

    // One huge request then a run of small ones: round-robin would
    // alternate, but least-loaded parks the small ones on replica 1
    // until its cumulative tokens pass the giant on replica 0.
    std::vector<runtime::Request> trace;
    for (int i = 0; i < 5; ++i) {
        runtime::Request r;
        r.arrival = i * 1e-4;
        r.phase = runtime::Phase::kDecode;
        r.decode_tokens = i == 0 ? 100 : 40;
        trace.push_back(r);
    }
    // Replica 1 absorbs smalls until its cumulative 120 passes the
    // giant's 100 — the last request swings back to replica 0.
    EXPECT_EQ(cluster.route(trace),
              (std::vector<int>{0, 1, 1, 1, 0}));
}

TEST_F(ClusterServingTest, LeastLoadedVirtualClockDrainsBacklog)
{
    sim::Machine machine(tiny_chip());
    runtime::ClusterOptions copts;
    copts.replicas = 2;
    copts.router = runtime::RouterPolicy::kLeastLoaded;
    copts.server = plain_options();
    copts.router_token_time_s = 1.0;  // 1 s per token, easy arithmetic
    runtime::Cluster cluster(machine, copts);

    // Two bursts far apart. Within a burst the backlog forces a
    // spread; by the second burst every virtual clock has drained, so
    // the tie breaks to replica 0 again — cumulative-work routing
    // would remember the first burst forever.
    std::vector<runtime::Request> trace;
    const double arrivals[] = {0.0, 0.0, 1000.0, 1000.0};
    for (double a : arrivals) {
        runtime::Request r;
        r.arrival = a;
        r.phase = runtime::Phase::kDecode;
        r.decode_tokens = 5;
        trace.push_back(r);
    }
    EXPECT_EQ(cluster.route(trace), (std::vector<int>{0, 1, 0, 1}));
}

TEST_F(ClusterServingTest, SessionAffinityPinsPrefixesToHomes)
{
    sim::Machine machine(tiny_chip());
    runtime::ClusterOptions copts;
    copts.replicas = 4;
    copts.router = runtime::RouterPolicy::kSessionAffinity;
    copts.server = prefix_options();
    runtime::Cluster cluster(machine, copts);

    // Interleaved carriers of three prefixes plus untagged prompts.
    std::vector<runtime::Request> trace;
    const int pids[] = {0, 1, 2, 0, 1, 2, -1, -1, 0, 2};
    for (size_t i = 0; i < sizeof(pids) / sizeof(pids[0]); ++i) {
        runtime::Request r;
        r.arrival = static_cast<double>(i) * 1e-4;
        r.phase = runtime::Phase::kPrefill;
        r.prompt_len = 64;
        if (pids[i] >= 0) {
            r.prefix_id = pids[i];
            r.prefix_len = 32;
        }
        trace.push_back(r);
    }
    auto routed = cluster.route(trace);
    // Every carrier of one prefix lands on one replica.
    std::vector<int> prefix_home(3, -1);
    int untagged = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
        if (trace[i].prefix_id >= 0) {
            int& h = prefix_home[trace[i].prefix_id];
            if (h < 0) {
                h = routed[i];
            }
            EXPECT_EQ(routed[i], h) << "carrier " << i;
        } else {
            // Untagged prompts round-robin: first fallback to 0,
            // second to 1.
            EXPECT_EQ(routed[i], untagged++);
        }
    }
}

// ---------------------------------------------------------------------------
// KV migration over the interconnect

// With carriers of one prefix scattered round-robin over two chips,
// migrate_kv imports the segment once onto the second chip — priced
// at exactly the fabric's transfer time — and both chips serve every
// later carrier as a cache hit. Without migration the second chip
// re-prefills (a local miss): one fewer hit, no interconnect traffic.
TEST_F(ClusterServingTest, MigrationImportsPrefixAtPricedStall)
{
    auto dc = make_compiler(compiler::GraphKind::kDecode,
                            compiler::Mode::kElkFull);
    auto pc = make_compiler(compiler::GraphKind::kPrefill,
                            compiler::Mode::kElkFull);
    auto prefill = [&](int b, int len) { return pc.program(b, len); };
    auto decode = [&](int b) { return dc.program(b); };
    auto trace = shared_prefix_trace(8, /*pid=*/0, /*prefix_len=*/96,
                                     /*prompt_len=*/112,
                                     /*decode_tokens=*/2);

    auto serve = [&](bool migrate) {
        runtime::ClusterOptions copts;
        copts.replicas = 2;
        copts.router = runtime::RouterPolicy::kRoundRobin;
        copts.server = prefix_options();
        copts.migrate_kv = migrate;
        copts.interconnect.kind = hw::InterconnectKind::kRing;
        runtime::Cluster cluster(dc.machine(), copts);
        return cluster.serve(trace, prefill, decode);
    };

    auto migrated = serve(true);
    auto local = serve(false);

    // Exactly one import: the round-robin scatter lands carrier 1 on
    // replica 1, which lacks the prefix replica 0 homed.
    EXPECT_EQ(migrated.kv_migrations, 1);
    EXPECT_EQ(migrated.kv_migrated_tokens, 96);
    const uint64_t bytes = 96ull * token_bytes();
    runtime::ClusterOptions copts;
    copts.replicas = 2;
    copts.server = prefix_options();
    runtime::Cluster pricing(dc.machine(), copts);
    EXPECT_DOUBLE_EQ(
        migrated.kv_migration_stall,
        pricing.fabric().transfer_seconds(0, 1, bytes));
    EXPECT_EQ(migrated.interconnect_bytes,
              static_cast<int64_t>(bytes));

    // The import turns replica 1's would-be misses into hits: 7 of 8
    // carriers hit with migration (all but the seeding first), 6
    // without (each chip pays its own seeding miss).
    auto hits = [](const runtime::ClusterReport& r) {
        int64_t h = 0;
        for (const auto& rep : r.replica_reports) {
            h += rep.prefix_hits;
        }
        return h;
    };
    EXPECT_EQ(hits(migrated), 7);
    EXPECT_EQ(hits(local), 6);
    EXPECT_EQ(local.kv_migrations, 0);
    EXPECT_EQ(local.interconnect_bytes, 0);
    EXPECT_EQ(local.kv_migration_stall, 0.0);
}

// The headline scenario: a dedicated prefill chip feeds a decode chip,
// KV flowing over the wire. The prefill replica ingests every prompt
// and produces zero tokens; the decode replica produces every token
// and pays one migration per request.
TEST_F(ClusterServingTest, PrefillTierFeedsDecodeTierOverTheWire)
{
    auto dc = make_compiler(compiler::GraphKind::kDecode,
                            compiler::Mode::kElkFull);
    auto pc = make_compiler(compiler::GraphKind::kPrefill,
                            compiler::Mode::kElkFull);
    auto trace = shared_prefix_trace(6, /*pid=*/0, /*prefix_len=*/32,
                                     /*prompt_len=*/64,
                                     /*decode_tokens=*/3);

    runtime::ClusterOptions copts;
    copts.replicas = 2;
    copts.prefill_replicas = 1;
    copts.server = prefix_options();
    runtime::Cluster cluster(dc.machine(), copts);
    auto rep = cluster.serve(
        trace, [&](int b, int len) { return pc.program(b, len); },
        [&](int b) { return dc.program(b); });

    ASSERT_EQ(rep.replica_reports.size(), 2u);
    const auto& pre = rep.replica_reports[0];
    const auto& dec = rep.replica_reports[1];
    // Every original request routed twice: once per tier.
    EXPECT_EQ(rep.requests, 6);
    EXPECT_EQ(rep.routed, 12);
    // The prefill chip ingests prompts, decodes nothing, frees its KV.
    EXPECT_EQ(pre.tokens, 0);
    EXPECT_GT(pre.prefill_iterations, 0);
    EXPECT_EQ(pre.decode_iterations, 0);
    // The decode chip produces all tokens, each request's KV arriving
    // as one interconnect migration of the full prompt.
    EXPECT_EQ(dec.tokens, 6 * 3);
    EXPECT_EQ(dec.prefill_iterations, 0);
    EXPECT_EQ(dec.kv_migrations, 6);
    EXPECT_EQ(dec.kv_migrated_tokens, 6 * 64);
    EXPECT_GT(dec.kv_migration_stall, 0.0);
    EXPECT_EQ(rep.tokens, 18);
    EXPECT_EQ(rep.interconnect_bytes,
              static_cast<int64_t>(6 * 64 * token_bytes()));
}

// A prefill-only request (decode_tokens == 0) completes at prompt
// ingestion on the plain single-chip Server too: it never joins the
// decode class and its KV frees immediately.
TEST_F(ClusterServingTest, PrefillOnlyRequestsCompleteAtIngestion)
{
    auto dc = make_compiler(compiler::GraphKind::kDecode,
                            compiler::Mode::kElkFull);
    auto pc = make_compiler(compiler::GraphKind::kPrefill,
                            compiler::Mode::kElkFull);
    std::vector<runtime::Request> trace;
    for (int i = 0; i < 4; ++i) {
        runtime::Request r;
        r.arrival = i * 1e-4;
        r.phase = runtime::Phase::kPrefill;
        r.decode_tokens = 0;
        r.prompt_len = 64;
        trace.push_back(r);
    }
    runtime::Server server(dc.machine(), prefix_options());
    auto rep = server.serve(
        trace, [&](int b, int len) { return pc.program(b, len); },
        [&](int b) { return dc.program(b); });
    EXPECT_EQ(rep.requests, 4);
    EXPECT_EQ(rep.tokens, 0);
    EXPECT_EQ(rep.decode_iterations, 0);
    EXPECT_GT(rep.prefill_iterations, 0);
    EXPECT_GT(rep.mean_ttft, 0.0);
    // A prefill-only request's latency IS its TTFT: completion at
    // prompt ingestion.
    EXPECT_DOUBLE_EQ(rep.mean_latency, rep.mean_ttft);
}

// Cluster roll-up consistency on a real serve: tokens and migration
// counters sum across replicas, the serialization is stable, and the
// summary renders.
TEST_F(ClusterServingTest, RollUpSumsReplicaReports)
{
    auto dc = make_compiler(compiler::GraphKind::kDecode,
                            compiler::Mode::kElkFull);
    auto pc = make_compiler(compiler::GraphKind::kPrefill,
                            compiler::Mode::kElkFull);
    auto mixed = runtime::make_request_trace(
        runtime::ArrivalTrace::poisson(12, 2000.0, 11), 2,
        /*prefill_frac=*/0.6, /*high_frac=*/0.0, 11);
    runtime::tag_prompt_lengths(mixed, kSeq, 24.0, 11);

    runtime::ClusterOptions copts;
    copts.replicas = 3;
    copts.router = runtime::RouterPolicy::kLeastLoaded;
    copts.server = plain_options();
    runtime::Cluster cluster(dc.machine(), copts);
    auto rep = cluster.serve(
        mixed, [&](int b, int len) { return pc.program(b, len); },
        [&](int b) { return dc.program(b); });

    int64_t tokens = 0;
    double makespan = 0.0;
    int routed = 0;
    for (const auto& r : rep.replica_reports) {
        tokens += r.tokens;
        makespan = std::max(makespan, r.makespan);
        routed += r.requests;
    }
    EXPECT_EQ(rep.tokens, tokens);
    EXPECT_EQ(rep.makespan, makespan);
    EXPECT_EQ(rep.routed, routed);
    EXPECT_EQ(rep.requests, 12);
    EXPECT_EQ(std::accumulate(rep.routed_per_replica.begin(),
                              rep.routed_per_replica.end(), 0),
              rep.routed);
    // Serving the same trace again is bit-identical (pure routing +
    // deterministic simulation).
    auto again = cluster.serve(
        mixed, [&](int b, int len) { return pc.program(b, len); },
        [&](int b) { return dc.program(b); });
    EXPECT_EQ(rep.serialize_bits(), again.serialize_bits());
    EXPECT_FALSE(rep.summary().empty());
}

// Replicas serve on parallel threads, yet the program sources are
// called one at a time. The sources count their calls in flight and
// hold each call open briefly, so two overlapping calls would raise
// the recorded maximum above one. A second serve makes the same calls
// and produces the same report.
TEST_F(ClusterServingTest, ProgramSourcesAreNeverCalledConcurrently)
{
    auto dc = make_compiler(compiler::GraphKind::kDecode,
                            compiler::Mode::kElkFull);
    auto pc = make_compiler(compiler::GraphKind::kPrefill,
                            compiler::Mode::kElkFull);
    auto mixed = runtime::make_request_trace(
        runtime::ArrivalTrace::poisson(24, 4000.0, 13), 3,
        /*prefill_frac=*/0.7, /*high_frac=*/0.2, 13);
    runtime::tag_prompt_lengths(mixed, kSeq, 32.0, 13);

    std::atomic<int> in_flight{0};
    std::atomic<int> max_in_flight{0};
    std::atomic<int64_t> calls{0};
    auto enter = [&] {
        const int now = in_flight.fetch_add(1) + 1;
        int seen = max_in_flight.load();
        while (now > seen &&
               !max_in_flight.compare_exchange_weak(seen, now)) {
        }
        calls.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(20));
    };
    auto prefill = [&](int b, int len) {
        enter();
        auto program = pc.program(b, len);
        in_flight.fetch_sub(1);
        return program;
    };
    auto decode = [&](int b) {
        enter();
        auto program = dc.program(b);
        in_flight.fetch_sub(1);
        return program;
    };

    runtime::ClusterOptions copts;
    copts.replicas = 4;
    copts.server = plain_options();
    runtime::Cluster cluster(dc.machine(), copts);
    auto first = cluster.serve(mixed, prefill, decode);
    const int64_t first_calls = calls.exchange(0);
    auto second = cluster.serve(mixed, prefill, decode);

    EXPECT_EQ(max_in_flight.load(), 1);
    EXPECT_GT(first_calls, 0);
    EXPECT_EQ(calls.load(), first_calls);
    EXPECT_EQ(first.serialize_bits(), second.serialize_bits());
    // Every replica served work, so the serves did overlap.
    for (int routed : first.routed_per_replica) {
        EXPECT_GT(routed, 0);
    }
}

// ---------------------------------------------------------------------------
// Misconfiguration death tests

TEST_F(ClusterServingTest, DeathOnMisconfiguration)
{
    sim::Machine machine(tiny_chip());
    {
        runtime::ClusterOptions copts;
        copts.replicas = 0;
        copts.server = plain_options();
        EXPECT_DEATH(runtime::Cluster(machine, copts),
                     "replica count");
    }
    {
        // Session affinity keys on prefix ids: prefix_sharing off is
        // fatal.
        runtime::ClusterOptions copts;
        copts.replicas = 2;
        copts.router = runtime::RouterPolicy::kSessionAffinity;
        copts.server = plain_options();
        EXPECT_DEATH(runtime::Cluster(machine, copts),
                     "prefix_sharing");
    }
    {
        // Migration without KV modeling is fatal.
        runtime::ClusterOptions copts;
        copts.replicas = 2;
        copts.migrate_kv = true;
        copts.server = plain_options();
        EXPECT_DEATH(runtime::Cluster(machine, copts), "kv_budget");
    }
    {
        // A prefill tier needs KV modeling (the decode tier's KV
        // arrives by migration).
        runtime::ClusterOptions copts;
        copts.replicas = 2;
        copts.prefill_replicas = 1;
        copts.server = plain_options();
        EXPECT_DEATH(runtime::Cluster(machine, copts), "kv_budget");
    }
    {
        // ... and at least one decode replica left over.
        runtime::ClusterOptions copts;
        copts.replicas = 2;
        copts.prefill_replicas = 2;
        copts.server = prefix_options();
        EXPECT_DEATH(runtime::Cluster(machine, copts),
                     "decode replica");
    }
    {
        // Server-level: a migration tag without KV modeling is fatal
        // even when handed to the Server directly.
        runtime::Server server(machine, plain_options());
        std::vector<runtime::Request> trace(1);
        trace[0].phase = runtime::Phase::kDecode;
        trace[0].prompt_len = 16;
        trace[0].kv_migrate_tokens = 16;
        EXPECT_DEATH(
            server.serve(trace, nullptr, [](int) {
                return std::shared_ptr<const sim::SimProgram>();
            }),
            "needs KV modeling");
    }
    {
        // Decode-phase requests still require decode_tokens >= 1.
        runtime::Server server(machine, plain_options());
        std::vector<runtime::Request> trace(1);
        trace[0].phase = runtime::Phase::kDecode;
        trace[0].decode_tokens = 0;
        EXPECT_DEATH(
            server.serve(trace, nullptr, [](int) {
                return std::shared_ptr<const sim::SimProgram>();
            }),
            "decode_tokens");
    }
}

}  // namespace
}  // namespace elk
