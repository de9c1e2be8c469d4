/**
 * @file
 * Prefix-cache KV sharing tests: the engine's refcounted shared
 * prefix segments (share/release lifecycle, eviction priced as a
 * refetch for every sharer, copy-on-extend), the conversational trace
 * generator (bursty arrivals, multi-turn sessions, Zipf prefix
 * populations — seeded and platform-stable), the serving-level
 * prefix cache (hits, saved prefill tokens, TTFT win), the
 * sharing-disabled bit-identity anchor across all five design modes,
 * and death tests for prefix misuse at both layers.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "elk/plan_cache.h"
#include "elk/serving_compiler.h"
#include "graph/model_builder.h"
#include "runtime/server.h"
#include "sim/engine.h"
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

/// serialize_bits() without the trailing prefix block (u8 flag +
/// 4 x 8-byte counters), the empty SLO block behind it (both reports
/// compared here have slo off, so that tail is fixed-size too), and
/// the chunk/locality block behind that (both have chunking off):
/// what the sharing-disabled anchor compares.
std::string
bits_before_prefix_block(const runtime::ServingReport& rep)
{
    std::string bits = rep.serialize_bits();
    EXPECT_FALSE(rep.slo);
    EXPECT_EQ(rep.prefill_chunk, 0);
    constexpr size_t kTail = testing::kPrefixBlock +
                             testing::kSloBlockEmpty +
                             testing::kChunkBlock;
    EXPECT_GE(bits.size(), kTail);
    return bits.substr(0, bits.size() - kTail);
}

// ---------------------------------------------------------------------------
// Engine-level: the refcounted shared-segment lifecycle

TEST(SharedPrefixTest, ShareReleaseTracksSharedBytes)
{
    sim::Machine machine(hw::ChipConfig::tiny(16));
    sim::EngineState state(machine);

    ASSERT_TRUE(state.kv_alloc(1, 4096));
    EXPECT_EQ(state.kv_share_count(1), 0);
    EXPECT_EQ(state.kv_shared_bytes(), 0u);

    state.kv_share(1);
    EXPECT_EQ(state.kv_share_count(1), 1);
    EXPECT_EQ(state.kv_shared_bytes(), 4096u);
    state.kv_share(1);
    EXPECT_EQ(state.kv_share_count(1), 2);
    EXPECT_EQ(state.kv_shared_bytes(), 4096u);  // counted once

    state.kv_release(1);
    EXPECT_EQ(state.kv_share_count(1), 1);
    EXPECT_EQ(state.kv_shared_bytes(), 4096u);
    state.kv_release(1);
    EXPECT_EQ(state.kv_share_count(1), 0);
    EXPECT_EQ(state.kv_shared_bytes(), 0u);
    EXPECT_EQ(state.kv_shared_bytes_peak(), 4096u);  // high-water sticks

    state.kv_free(1);  // unshared again: free is legal
    EXPECT_EQ(state.kv_bytes(), 0u);
}

TEST(SharedPrefixTest, SharingForbidsFreeAndGrowButNotEviction)
{
    sim::Machine machine(hw::ChipConfig::tiny(16));
    sim::EngineState state(machine);

    ASSERT_TRUE(state.kv_alloc(1, 4096));
    state.kv_share(1);
    EXPECT_DEATH(state.kv_free(1), "shared segment");
    EXPECT_DEATH(state.kv_grow(1, 1024), "copy-on-extend");

    // Eviction of an unpinned shared prefix is allowed: the segment
    // stays owned and shared, sharers pay a refetch to stream it
    // back. Its bytes leave the shared-resident accounting while
    // spilled and return on fetch.
    state.kv_evict(1);
    EXPECT_FALSE(state.kv_resident(1));
    EXPECT_EQ(state.kv_share_count(1), 1);
    EXPECT_EQ(state.kv_shared_bytes(), 0u);
    EXPECT_EQ(state.kv_evictions(), 1);

    EXPECT_TRUE(state.kv_fetch(1));
    EXPECT_TRUE(state.kv_resident(1));
    EXPECT_EQ(state.kv_shared_bytes(), 4096u);

    // Pinned shared prefixes are immovable.
    state.kv_pin(1);
    EXPECT_DEATH(state.kv_evict(1), "pinned segment");
    state.kv_unpin(1);
    state.kv_release(1);
    state.kv_free(1);
}

TEST(SharedPrefixTest, BudgetPressureSpillsSharedPrefixUnlessPinned)
{
    sim::Machine machine(hw::ChipConfig::tiny(16));
    sim::EngineState::Options opts;
    opts.kv_budget = 8192;  // two 4 KB segments
    sim::EngineState state(machine, opts);

    ASSERT_TRUE(state.kv_alloc(1, 4096));  // the shared prefix
    state.kv_share(1);
    ASSERT_TRUE(state.kv_alloc(2, 4096));
    // Admitting a third spills the oldest — shares do not protect a
    // segment from the budget, only pins do.
    ASSERT_TRUE(state.kv_alloc(3, 4096));
    EXPECT_FALSE(state.kv_resident(1));
    EXPECT_EQ(state.kv_share_count(1), 1);

    // Pinned, the shared prefix survives the same pressure.
    ASSERT_TRUE(state.kv_fetch(1));  // spills 2 or 3
    state.kv_pin(1);
    ASSERT_TRUE(state.kv_alloc(4, 4096));
    EXPECT_TRUE(state.kv_resident(1));
    state.kv_unpin(1);
    state.kv_release(1);
}

TEST(SharedPrefixTest, FrequencyPolicyPrefersEvictingUnshared)
{
    sim::Machine machine(hw::ChipConfig::tiny(16));
    sim::EngineState::Options opts;
    opts.kv_budget = 8192;
    opts.policy = sim::ResidencyPolicy::kFrequencyAware;
    sim::EngineState state(machine, opts);

    // Same size, same reuse: the sharer count is the tiebreaker, so
    // the unshared segment is the cheaper victim even though the
    // shared one is older.
    ASSERT_TRUE(state.kv_alloc(1, 4096));
    state.kv_share(1);
    ASSERT_TRUE(state.kv_alloc(2, 4096));
    ASSERT_TRUE(state.kv_alloc(3, 4096));
    EXPECT_TRUE(state.kv_resident(1));
    EXPECT_FALSE(state.kv_resident(2));
    state.kv_release(1);
}

TEST(SharedPrefixDeathTest, MisuseDies)
{
    sim::Machine machine(hw::ChipConfig::tiny(16));
    sim::EngineState state(machine);
    EXPECT_DEATH(state.kv_share(7), "unowned segment");
    EXPECT_DEATH(state.kv_release(7), "unowned segment");
    EXPECT_DEATH(state.kv_evict(7), "unowned segment");

    ASSERT_TRUE(state.kv_alloc(1, 1024));
    EXPECT_DEATH(state.kv_release(1), "unshared segment");
    state.kv_evict(1);
    EXPECT_DEATH(state.kv_evict(1), "non-resident segment");
}

// ---------------------------------------------------------------------------
// Trace generation: bursty arrivals and conversational sessions

TEST(BurstyTraceTest, SeededSortedAndNearNominalRate)
{
    auto a = runtime::ArrivalTrace::bursty(2000, 1000.0, 4.0, 11);
    auto b = runtime::ArrivalTrace::bursty(2000, 1000.0, 4.0, 11);
    ASSERT_EQ(a.size(), 2000u);
    EXPECT_EQ(a, b);  // bit-identical per seed
    for (size_t i = 1; i < a.size(); ++i) {
        EXPECT_LE(a[i - 1], a[i]);
    }
    // The two-state MMPP keeps the long-run mean rate at the nominal
    // rate; 2000 arrivals at 1000/s should span ~2 s.
    EXPECT_NEAR(a.back(), 2.0, 0.5);

    auto c = runtime::ArrivalTrace::bursty(2000, 1000.0, 4.0, 12);
    EXPECT_NE(a, c);  // the seed matters
    // factor 1 degenerates to a plain Poisson process of that rate.
    EXPECT_EQ(runtime::ArrivalTrace::bursty(64, 500.0, 1.0, 5),
              runtime::ArrivalTrace::poisson(64, 500.0, 5));
}

TEST(SessionTraceTest, DeterministicWellFormedAndZipfSkewed)
{
    runtime::SessionTraceOptions opts;
    opts.sessions = 60;
    opts.rate_per_s = 300.0;
    opts.burst_factor = 2.0;
    opts.mean_turns = 3.0;
    opts.think_time_s = 0.01;
    opts.decode_tokens = 2;
    opts.max_prompt_len = 128;
    opts.prompt_mean_len = 16.0;
    opts.prefix_population = 6;
    opts.prefix_zipf_s = 1.0;
    opts.prefix_mean_len = 32.0;

    auto a = runtime::make_session_trace(opts, 21);
    auto b = runtime::make_session_trace(opts, 21);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_GE(static_cast<int>(a.size()), opts.sessions);

    std::map<int, int> canonical;  // prefix id -> prefix_len
    std::map<int, int> popularity;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].prompt_len, b[i].prompt_len);
        EXPECT_EQ(a[i].prefix_id, b[i].prefix_id);
        EXPECT_EQ(a[i].prefix_len, b[i].prefix_len);
        EXPECT_EQ(a[i].phase, runtime::Phase::kPrefill);
        EXPECT_EQ(a[i].decode_tokens, 2);
        if (i > 0) {
            EXPECT_LE(a[i - 1].arrival, a[i].arrival);
        }
        ASSERT_GE(a[i].prefix_id, 0);  // every turn has a session prefix
        EXPECT_LT(a[i].prefix_id, opts.prefix_population);
        EXPECT_GE(a[i].prefix_len, 1);
        EXPECT_LT(a[i].prefix_len, a[i].prompt_len);
        EXPECT_LE(a[i].prompt_len, opts.max_prompt_len);
        // One canonical length per prefix id, every carrier agrees.
        auto it = canonical.find(a[i].prefix_id);
        if (it == canonical.end()) {
            canonical[a[i].prefix_id] = a[i].prefix_len;
        } else {
            EXPECT_EQ(it->second, a[i].prefix_len);
        }
        ++popularity[a[i].prefix_id];
    }
    // Zipf(1.0): the head prefix dominates the tail.
    EXPECT_GT(popularity[0], popularity[opts.prefix_population - 1]);

    auto c = runtime::make_session_trace(opts, 22);
    ASSERT_FALSE(c.empty());
    bool differs = c.size() != a.size();
    for (size_t i = 0; !differs && i < a.size(); ++i) {
        differs = a[i].arrival != c[i].arrival ||
                  a[i].prompt_len != c[i].prompt_len;
    }
    EXPECT_TRUE(differs);  // the seed matters
}

TEST(SessionTraceTest, DomainSeparatedStreamsAreIndependent)
{
    runtime::SessionTraceOptions opts;
    opts.sessions = 40;
    opts.rate_per_s = 300.0;
    opts.mean_turns = 2.0;
    opts.decode_tokens = 1;
    opts.max_prompt_len = 128;
    opts.prompt_mean_len = 16.0;
    opts.prefix_population = 4;
    opts.prefix_zipf_s = 1.0;
    opts.prefix_mean_len = 32.0;
    auto a = runtime::make_session_trace(opts, 33);

    // Changing only the arrival process (burstiness) must not perturb
    // the prompt/prefix draws: the multiset of (prefix id, prefix
    // len, prompt len) tuples is unchanged, only arrival times move.
    runtime::SessionTraceOptions bursty = opts;
    bursty.burst_factor = 3.0;
    auto b = runtime::make_session_trace(bursty, 33);
    ASSERT_EQ(a.size(), b.size());
    auto shape = [](const std::vector<runtime::Request>& t) {
        std::vector<std::tuple<int, int, int>> s;
        for (const auto& r : t) {
            s.emplace_back(r.prefix_id, r.prefix_len, r.prompt_len);
        }
        std::sort(s.begin(), s.end());
        return s;
    };
    EXPECT_EQ(shape(a), shape(b));
}

// ---------------------------------------------------------------------------
// The serving fixture

class PrefixServingTest : public ::testing::Test {
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

    /// ServerOptions with KV modeling on and room for a few
    /// full-length segments per core.
    runtime::ServerOptions
    kv_options() const
    {
        runtime::ServerOptions sopts;
        sopts.max_batch = 4;
        sopts.max_prefill_batch = 2;
        sopts.max_prompt_len = kSeq;
        sopts.kv_bytes_per_token = token_bytes();
        sopts.kv_budget = 4 * kSeq * token_bytes() / 64;
        return sopts;
    }

    /// A trace of @p n prompts all carrying prefix id 0.
    std::vector<runtime::Request>
    shared_prefix_trace(int n, int prefix_len, int prompt_len,
                        int decode_tokens) const
    {
        std::vector<runtime::Request> trace;
        for (int i = 0; i < n; ++i) {
            runtime::Request r;
            r.arrival = i * 1e-4;
            r.phase = runtime::Phase::kPrefill;
            r.decode_tokens = decode_tokens;
            r.prompt_len = prompt_len;
            r.prefix_id = 0;
            r.prefix_len = prefix_len;
            trace.push_back(r);
        }
        return trace;
    }

    compiler::PlanCache cache_;
};

// The acceptance anchor: prefix sharing disabled (the default) runs
// none of the new code. With sharing forced ON over a trace with no
// prefix tags, every byte of the serialization before the trailing
// prefix block matches the sharing-OFF serve of the same trace, and
// the prefix counters are zero — across all five design modes.
TEST_F(PrefixServingTest, DisabledSharingIsBitIdenticalAcrossModes)
{
    auto mixed = runtime::make_request_trace(
        runtime::ArrivalTrace::poisson(10, 2500.0, 7), 3,
        /*prefill_frac=*/0.7, /*high_frac=*/0.0, 7);
    runtime::tag_prompt_lengths(mixed, kSeq, 32.0, 7);
    for (auto mode :
         {compiler::Mode::kBasic, compiler::Mode::kStatic,
          compiler::Mode::kElkDyn, compiler::Mode::kElkFull,
          compiler::Mode::kIdeal}) {
        auto dc = make_compiler(compiler::GraphKind::kDecode, mode);
        auto pc = make_compiler(compiler::GraphKind::kPrefill, mode);
        auto serve = [&](bool sharing) {
            runtime::ServerOptions sopts = kv_options();
            sopts.prefix_sharing = sharing;
            runtime::Server s(dc.machine(), sopts);
            return s.serve(
                mixed,
                [&](int b, int len) { return pc.program(b, len); },
                [&](int b) { return dc.program(b); });
        };
        auto off = serve(false);
        auto on = serve(true);
        EXPECT_EQ(bits_before_prefix_block(off),
                  bits_before_prefix_block(on))
            << compiler::mode_name(mode);
        EXPECT_FALSE(off.prefix_sharing);
        EXPECT_TRUE(on.prefix_sharing);
        for (const auto& rep : {off, on}) {
            EXPECT_EQ(rep.prefix_hits, 0);
            EXPECT_EQ(rep.prefix_hit_tokens, 0);
            EXPECT_EQ(rep.prefill_tokens_saved, 0);
            EXPECT_EQ(rep.shared_kv_bytes, 0u);
        }
    }
}

// The cache win: every prompt after the seeding carrier hits, prefill
// runs at the residual length (saved token slots), TTFT improves vs
// the identical trace with the tags stripped, and the shared segment
// shows up in the peak accounting.
TEST_F(PrefixServingTest, HitsSkipCoveredPrefillTokens)
{
    auto dc = make_compiler(compiler::GraphKind::kDecode,
                            compiler::Mode::kElkFull);
    auto pc = make_compiler(compiler::GraphKind::kPrefill,
                            compiler::Mode::kElkFull);
    auto tagged = shared_prefix_trace(8, /*prefix_len=*/96,
                                      /*prompt_len=*/112,
                                      /*decode_tokens=*/2);
    auto untagged = tagged;
    for (auto& r : untagged) {
        r.prefix_id = -1;
        r.prefix_len = 0;
    }
    auto serve = [&](const std::vector<runtime::Request>& trace,
                     bool sharing) {
        runtime::ServerOptions sopts = kv_options();
        sopts.prefix_sharing = sharing;
        runtime::Server s(dc.machine(), sopts);
        return s.serve(
            trace, [&](int b, int len) { return pc.program(b, len); },
            [&](int b) { return dc.program(b); });
    };
    auto on = serve(tagged, true);
    auto off = serve(untagged, false);

    EXPECT_EQ(on.requests, 8);
    EXPECT_EQ(on.prefix_hits, 7);  // the first carrier seeds
    EXPECT_EQ(on.prefix_hit_tokens, 7 * 96);
    EXPECT_GT(on.prefill_tokens_saved, 0);
    EXPECT_GT(on.shared_kv_bytes, 0u);
    EXPECT_EQ(off.prefix_hits, 0);
    EXPECT_LT(on.mean_ttft, off.mean_ttft);
    EXPECT_LE(on.prompt_tokens, off.prompt_tokens);

    // Deterministic: a second sharing serve is bit-identical.
    EXPECT_EQ(on.serialize_bits(),
              serve(tagged, true).serialize_bits());
}

// Copy-on-extend at the serving level: decode tokens grow each
// request's private tail while the shared prefix segment stays at its
// canonical size, even across eviction/refetch of the prefix under a
// tight budget. The run must complete with the prefix still shared
// correctly (hits for every later carrier).
TEST_F(PrefixServingTest, DecodeGrowsPrivateTailsNotThePrefix)
{
    auto dc = make_compiler(compiler::GraphKind::kDecode,
                            compiler::Mode::kElkDyn);
    auto pc = make_compiler(compiler::GraphKind::kPrefill,
                            compiler::Mode::kElkDyn);
    auto trace = shared_prefix_trace(6, /*prefix_len=*/64,
                                     /*prompt_len=*/80,
                                     /*decode_tokens=*/8);
    runtime::ServerOptions sopts = kv_options();
    // Tight: the prefix plus a tail or two — growth and refetch churn
    // under pressure.
    sopts.kv_budget = 2 * kSeq * token_bytes() / 64;
    sopts.prefix_sharing = true;
    runtime::Server server(dc.machine(), sopts);
    auto serve_once = [&] {
        return server.serve(
            trace, [&](int b, int len) { return pc.program(b, len); },
            [&](int b) { return dc.program(b); });
    };
    auto rep = serve_once();
    EXPECT_EQ(rep.requests, 6);
    EXPECT_EQ(rep.tokens, 6 * 8);
    EXPECT_EQ(rep.prefix_hits, 5);
    EXPECT_GT(rep.shared_kv_bytes, 0u);
    EXPECT_EQ(rep.serialize_bits(), serve_once().serialize_bits());
}

// A full conversational trace end to end: sessions, turns, Zipf
// prefixes, bursty arrivals — served with sharing on, deterministic,
// with hits well above the distinct-prefix floor.
TEST_F(PrefixServingTest, SessionTraceServesDeterministically)
{
    auto dc = make_compiler(compiler::GraphKind::kDecode,
                            compiler::Mode::kElkFull);
    auto pc = make_compiler(compiler::GraphKind::kPrefill,
                            compiler::Mode::kElkFull);
    runtime::SessionTraceOptions topts;
    topts.sessions = 10;
    topts.rate_per_s = 400.0;
    topts.burst_factor = 2.0;
    topts.mean_turns = 3.0;
    topts.think_time_s = 0.005;
    topts.decode_tokens = 2;
    topts.max_prompt_len = kSeq;
    topts.prompt_mean_len = 16.0;
    topts.prefix_population = 3;
    topts.prefix_zipf_s = 1.0;
    topts.prefix_mean_len = 32.0;
    auto trace = runtime::make_session_trace(topts, 29);
    ASSERT_GE(static_cast<int>(trace.size()), topts.sessions);

    runtime::ServerOptions sopts = kv_options();
    sopts.prefix_sharing = true;
    runtime::Server server(dc.machine(), sopts);
    auto serve_once = [&] {
        return server.serve(
            trace, [&](int b, int len) { return pc.program(b, len); },
            [&](int b) { return dc.program(b); });
    };
    auto rep = serve_once();
    EXPECT_EQ(rep.requests, static_cast<int>(trace.size()));
    // At most one miss per distinct prefix; everything else hits.
    EXPECT_GE(rep.prefix_hits, static_cast<int64_t>(trace.size()) -
                                   topts.prefix_population);
    EXPECT_GT(rep.prefill_tokens_saved, 0);
    EXPECT_EQ(rep.serialize_bits(), serve_once().serialize_bits());
}

TEST_F(PrefixServingTest, ServerRejectsPrefixMisuse)
{
    auto dc = make_compiler(compiler::GraphKind::kDecode,
                            compiler::Mode::kBasic);
    auto pc = make_compiler(compiler::GraphKind::kPrefill,
                            compiler::Mode::kBasic);

    // Sharing without KV modeling: the shared segments would have
    // nowhere to live.
    runtime::ServerOptions no_kv;
    no_kv.max_batch = 4;
    no_kv.max_prompt_len = kSeq;
    no_kv.prefix_sharing = true;
    EXPECT_DEATH(runtime::Server(dc.machine(), no_kv),
                 "needs KV modeling");

    // A prefix-tagged request served without sharing enabled.
    auto tagged = shared_prefix_trace(2, 32, 64, 1);
    runtime::ServerOptions off = kv_options();
    runtime::Server plain(dc.machine(), off);
    EXPECT_DEATH(
        plain.serve(
            tagged, [&](int b, int len) { return pc.program(b, len); },
            [&](int b) { return dc.program(b); }),
        "prefix-tagged requests need");

    // prefix_len out of range: at least one residual token must
    // reach prefill.
    auto bad = shared_prefix_trace(1, /*prefix_len=*/64,
                                   /*prompt_len=*/64, 1);
    runtime::ServerOptions on = kv_options();
    on.prefix_sharing = true;
    runtime::Server sharing(dc.machine(), on);
    EXPECT_DEATH(
        sharing.serve(
            bad, [&](int b, int len) { return pc.program(b, len); },
            [&](int b) { return dc.program(b); }),
        "prefix_len must be in");
}

}  // namespace
}  // namespace elk
