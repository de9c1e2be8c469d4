/**
 * @file
 * Randomized differential scheduler harness: ~200 seeded random
 * configurations (chunk size x KV budget x prefix sharing x SLO shape
 * x residency policy x locality) over random traces, each serve
 * checked against conservation invariants (every request completes
 * exactly once, prompt tokens partition into ingested + prefix-hit,
 * per-tenant roll-ups partition the totals), against itself
 * (serve-twice bit-identity and --jobs 1 vs --jobs 4 compiler
 * bit-identity) and against recorded golden digests of every config's
 * report (tests/data/sched_property_digests.txt), so a scheduler
 * change that shifts behaviour consistently still fails. Failures
 * print the offending config seed. Plus backfill units for
 * tag_deadlines(), tag_tenants() and pick_bucket() on residual chunk
 * lengths.
 *
 * The golden file is rewritten, instead of checked, by running
 *   ELK_RECORD_SCHED_DIGESTS=<file> ./sched_property_test
 * — only for a change that is meant to alter simulated output.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <vector>

#include "elk/plan_cache.h"
#include "elk/serving_compiler.h"
#include "graph/model_builder.h"
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

/// FNV-1a hex digest of a report's exact bit serialization.
std::string
digest(const runtime::ServingReport& rep)
{
    const std::string bits = rep.serialize_bits();
    util::Fnv1a h;
    h.mix(bits.data(), bits.size());
    return h.hex();
}

/// The recorded golden digests: config seed -> report digest. Lines
/// are "<seed> <digest>"; '#' starts a comment line.
std::map<uint64_t, std::string>
load_golden_digests(const std::string& path)
{
    std::map<uint64_t, std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::istringstream fields(line);
        uint64_t seed = 0;
        std::string hex;
        if (fields >> seed >> hex) {
            out[seed] = hex;
        }
    }
    return out;
}

/// One drawn scheduler configuration + trace, fully determined by its
/// seed (the failure-reproduction handle).
struct Config {
    uint64_t seed = 0;
    compiler::Mode mode = compiler::Mode::kStatic;
    std::vector<runtime::Request> trace;
    runtime::ServerOptions opts;

    std::string
    describe() const
    {
        std::ostringstream out;
        out << "config seed " << seed << " mode "
            << compiler::mode_name(mode) << " n " << trace.size()
            << " chunk " << opts.prefill_chunk << " kv "
            << opts.kv_budget << " prefix " << opts.prefix_sharing
            << " slo " << opts.slo << " tenants " << opts.tenants
            << " locality " << opts.kv_locality << " policy "
            << (opts.residency_policy ==
                        sim::ResidencyPolicy::kRetireOrder
                    ? "retire"
                    : "freq");
        return out.str();
    }
};

class SchedPropertyTest : public ::testing::Test {
  protected:
    static constexpr int kSeq = 128;

    compiler::ServingCompiler
    make_compiler(compiler::GraphKind kind, compiler::Mode mode,
                  int jobs, compiler::PlanCache* cache)
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
                                         tiny_chip(), copts, cache,
                                         jobs, sopts);
    }

    uint64_t
    token_bytes() const
    {
        return graph::kv_bytes_per_token(testing::tiny_llm());
    }

    /// Draws the configuration for index @p i — every choice comes
    /// off one seeded mt19937_64, so a failing index reproduces from
    /// its printed seed alone.
    Config
    draw_config(int i) const
    {
        Config cfg;
        cfg.seed = 0xe1c5eedull + static_cast<uint64_t>(i);
        std::mt19937_64 rng(cfg.seed);
        cfg.mode = (rng() % 2 == 0) ? compiler::Mode::kStatic
                                    : compiler::Mode::kElkFull;

        runtime::ServerOptions& o = cfg.opts;
        o.max_batch = 4;
        o.max_prefill_batch = 1 + static_cast<int>(rng() % 2);
        o.max_prompt_len = kSeq;
        o.residency_policy = (rng() % 2 == 0)
                                 ? sim::ResidencyPolicy::kRetireOrder
                                 : sim::ResidencyPolicy::kFrequencyAware;

        // KV budget: off, tight (segments spill), or roomy.
        const uint64_t per_seg = kSeq * token_bytes() / 64;
        switch (rng() % 3) {
        case 0: break;  // modeling off
        case 1: o.kv_budget = 2 * per_seg; break;
        case 2: o.kv_budget = 6 * per_seg; break;
        }
        if (o.kv_budget > 0) {
            o.kv_bytes_per_token = token_bytes();
            o.kv_locality = rng() % 2 == 0;
            o.prefix_sharing = rng() % 2 == 0;
        }

        // Chunked prefill: off or one of the power-of-two sizes.
        const int chunks[] = {0, 8, 32, 128};
        o.prefill_chunk = chunks[rng() % 4];

        // SLO shape: off, two plain tenants, or three weighted
        // tenants with a uniform deadline.
        const int slo_shape = static_cast<int>(rng() % 3);
        bool deadlines = false;
        if (slo_shape > 0) {
            o.slo = true;
            o.tenants = 1 + slo_shape;
            if (slo_shape == 2) {
                o.tenant_shares = {3.0, 2.0, 1.0};
                deadlines = true;
            }
        }

        // The trace: conversational (session + prefixes) when prefix
        // sharing drew on, a mixed-phase tagged trace otherwise.
        const int n = 3 + static_cast<int>(rng() % 10);
        const double rate = 1500.0 + 500.0 * (rng() % 8);
        const int decode_tokens = 1 + static_cast<int>(rng() % 4);
        if (o.prefix_sharing) {
            runtime::SessionTraceOptions topts;
            topts.sessions = n;
            topts.rate_per_s = rate;
            topts.mean_turns = 2.0;
            topts.decode_tokens = decode_tokens;
            topts.max_prompt_len = kSeq;
            topts.prompt_mean_len = 24.0;
            topts.prefix_population = 2;
            topts.prefix_mean_len = 16.0;
            cfg.trace = runtime::make_session_trace(topts, cfg.seed);
        } else {
            const double prefill_frac =
                o.kv_budget > 0 ? 1.0 : (rng() % 2 == 0 ? 0.7 : 1.0);
            const double high_frac = rng() % 2 == 0 ? 0.0 : 0.25;
            cfg.trace = runtime::make_request_trace(
                runtime::ArrivalTrace::poisson(n, rate, cfg.seed),
                decode_tokens, prefill_frac, high_frac, cfg.seed);
            runtime::tag_prompt_lengths(cfg.trace, kSeq, 32.0,
                                        cfg.seed);
        }
        if (o.tenants > 1) {
            runtime::tag_tenants(cfg.trace, o.tenants, cfg.seed);
        }
        if (deadlines) {
            runtime::tag_deadlines(cfg.trace, /*slo_s=*/5e-3);
        }
        return cfg;
    }

    compiler::PlanCache cache1_;  ///< --jobs 1 compilers.
    compiler::PlanCache cache4_;  ///< --jobs 4 compilers.
};

// The harness: every drawn config must (a) conserve its trace — each
// request completes exactly once, decode tokens match the trace sum,
// ingested + prefix-covered prompt tokens partition the prompt sum,
// tenant roll-ups partition both totals; (b) reproduce itself —
// serving the same trace twice through the same programs is
// bit-identical; (c) be compiler-parallelism-blind — programs built
// with --jobs 4 serve bit-identically to --jobs 1; (d) match the
// digest recorded for its seed.
TEST_F(SchedPropertyTest, RandomConfigsConserveAndReproduce)
{
    constexpr int kConfigs = 200;
    const std::string golden_path =
        std::string(ELK_TEST_DATA_DIR) + "/sched_property_digests.txt";
    const char* record_path = std::getenv("ELK_RECORD_SCHED_DIGESTS");
    std::ostringstream recorded;
    std::map<uint64_t, std::string> golden;
    if (record_path == nullptr) {
        golden = load_golden_digests(golden_path);
        ASSERT_EQ(golden.size(), static_cast<size_t>(kConfigs))
            << "golden digest file " << golden_path
            << " must carry one digest per config";
    }
    for (int i = 0; i < kConfigs; ++i) {
        Config cfg = draw_config(i);
        SCOPED_TRACE(cfg.describe());

        auto dc1 = make_compiler(compiler::GraphKind::kDecode,
                                 cfg.mode, /*jobs=*/1, &cache1_);
        auto pc1 = make_compiler(compiler::GraphKind::kPrefill,
                                 cfg.mode, /*jobs=*/1, &cache1_);
        auto dc4 = make_compiler(compiler::GraphKind::kDecode,
                                 cfg.mode, /*jobs=*/4, &cache4_);
        auto pc4 = make_compiler(compiler::GraphKind::kPrefill,
                                 cfg.mode, /*jobs=*/4, &cache4_);
        auto serve = [&](compiler::ServingCompiler& dc,
                         compiler::ServingCompiler& pc) {
            runtime::Server s(dc.machine(), cfg.opts);
            return s.serve(
                cfg.trace,
                [&](int b, int len) { return pc.program(b, len); },
                [&](int b) { return dc.program(b); });
        };
        auto rep = serve(dc1, pc1);

        // (a) conservation.
        ASSERT_EQ(rep.requests, static_cast<int>(cfg.trace.size()));
        int64_t decode_sum = 0;
        int64_t prompt_sum = 0;
        for (const auto& r : cfg.trace) {
            decode_sum += r.decode_tokens;
            if (r.phase == runtime::Phase::kPrefill) {
                prompt_sum +=
                    r.prompt_len > 0 ? r.prompt_len : kSeq;
            }
        }
        EXPECT_EQ(rep.tokens, decode_sum);
        EXPECT_EQ(rep.prompt_tokens + rep.prefix_hit_tokens,
                  prompt_sum);
        if (cfg.opts.slo) {
            ASSERT_EQ(rep.tenant_shares.size(),
                      static_cast<size_t>(cfg.opts.tenants));
            int tenant_requests = 0;
            int64_t tenant_tokens = 0;
            double share_sum = 0.0;
            for (const auto& t : rep.tenant_shares) {
                tenant_requests += t.requests;
                tenant_tokens += t.tokens;
                share_sum += t.token_share;
            }
            EXPECT_EQ(tenant_requests, rep.requests);
            EXPECT_EQ(tenant_tokens, rep.tokens + rep.prompt_tokens);
            EXPECT_NEAR(share_sum, 1.0, 1e-9);
        } else {
            EXPECT_TRUE(rep.tenant_shares.empty());
        }
        // The KV ledger balances: the engine panics on any unmatched
        // alloc/pin/free, so a completed serve with a sane peak is
        // the balance check.
        if (cfg.opts.kv_budget > 0) {
            EXPECT_LE(rep.mean_kv_bytes,
                      static_cast<double>(rep.kv_bytes_peak) + 1.0);
        } else {
            EXPECT_EQ(rep.kv_bytes_peak, 0u);
            EXPECT_EQ(rep.kv_locality_skips, 0);
        }
        if (cfg.opts.prefill_chunk == 0) {
            EXPECT_EQ(rep.prefill_chunks, 0);
            EXPECT_EQ(rep.chunked_prompts, 0);
            EXPECT_EQ(rep.chunk_decode_interleaves, 0);
        }

        // (b) serve-twice bit-identity.
        auto again = serve(dc1, pc1);
        EXPECT_EQ(rep.serialize_bits(), again.serialize_bits());

        // (c) --jobs 1 vs --jobs 4 bit-identity.
        auto parallel = serve(dc4, pc4);
        EXPECT_EQ(rep.serialize_bits(), parallel.serialize_bits());

        // (d) the recorded golden digest.
        if (record_path != nullptr) {
            recorded << cfg.seed << " " << digest(rep) << "\n";
        } else {
            EXPECT_EQ(digest(rep), golden[cfg.seed])
                << "golden digest mismatch at config seed " << cfg.seed;
        }

        if (::testing::Test::HasFailure()) {
            FAIL() << "stopping at first failing " << cfg.describe();
        }
    }
    if (record_path != nullptr) {
        std::ofstream out(record_path);
        out << "# FNV-1a digests of ServingReport::serialize_bits(), one "
               "per\n# SchedPropertyTest config: <config seed> <digest>.\n"
               "# Rewrite with ELK_RECORD_SCHED_DIGESTS=<file> "
               "./sched_property_test\n"
            << recorded.str();
        ASSERT_TRUE(out.good()) << "could not write " << record_path;
    }
}

// ---------------------------------------------------------------------------
// Backfill units

// tag_deadlines is pure arithmetic but still rejects a meaningless
// SLO: zero (or negative) deadlines would mark every request late at
// arrival.
TEST_F(SchedPropertyTest, TagDeadlinesRejectsNonPositiveSlo)
{
    std::vector<runtime::Request> trace(2);
    EXPECT_DEATH(runtime::tag_deadlines(trace, 0.0),
                 "slo_s must be positive");
    EXPECT_DEATH(runtime::tag_deadlines(trace, -1.0),
                 "slo_s must be positive");
}

// tag_tenants with tenants == 1 consumes no draws at all, so the
// result cannot depend on the seed: any two seeds leave the trace
// byte-for-byte untouched.
TEST_F(SchedPropertyTest, TagTenantsSingleTenantIsSeedIndependent)
{
    auto trace = runtime::make_request_trace(
        runtime::ArrivalTrace::poisson(16, 3000.0, 13), 2,
        /*prefill_frac=*/0.5, /*high_frac=*/0.25, 13);
    auto a = trace;
    auto b = trace;
    runtime::tag_tenants(a, 1, /*seed=*/1);
    runtime::tag_tenants(b, 1, /*seed=*/0xdeadbeef);
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(a[i].tenant, 0);
        EXPECT_EQ(b[i].tenant, 0);
        EXPECT_EQ(a[i].tenant, trace[i].tenant);  // untouched
    }
}

// pick_bucket over the residual lengths chunk_plan produces: full
// chunks land exactly on their own bucket, the short residual drops
// to the smallest covering bucket, and an over-long need saturates at
// the largest rung.
TEST_F(SchedPropertyTest, PickBucketCoversResidualChunkLengths)
{
    const std::vector<int> ladder = {16, 32, 64, 128};
    for (int piece : runtime::chunk_plan(100, 32)) {
        // {32, 32, 32, 4}: full chunks exact, residual covered.
        EXPECT_EQ(runtime::pick_bucket(ladder, piece),
                  piece == 4 ? 16 : 32);
    }
    for (int piece : runtime::chunk_plan(129, 128)) {
        // {128, 1}.
        EXPECT_EQ(runtime::pick_bucket(ladder, piece),
                  piece == 1 ? 16 : 128);
    }
    EXPECT_EQ(runtime::pick_bucket(ladder, 200), 128);  // saturates
    EXPECT_EQ(runtime::pick_bucket({16, 32}, 100), 32);
}

}  // namespace
}  // namespace elk
