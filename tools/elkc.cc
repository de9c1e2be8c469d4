/**
 * @file
 * elkc — the Elk command-line compiler driver.
 *
 * Compiles a model (built-in preset or an .egf graph file) for an
 * ICCA chip configuration, runs it on the simulator, and reports the
 * schedule and measured performance.
 *
 *   elkc --model Llama2-13B --batch 32 --seq 2048 --mode elk-full
 *   elkc --graph my_model.egf --topology mesh --hbm-tbs 8
 *   elkc --model OPT-30B --dump-timing run.csv --timeline
 *
 * The `serve` subcommand drives the event-driven serving runtime
 * instead of a single decode step:
 *
 *   elkc serve --model Llama2-13B --batch 32 --requests 64 --rate 800
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "elk/compiler.h"
#include "elk/device_program.h"
#include "elk/plan_cache.h"
#include "elk/serving_compiler.h"
#include "frontend/graph_io.h"
#include "graph/model_builder.h"
#include "runtime/executor.h"
#include "runtime/metrics.h"
#include "runtime/cluster.h"
#include "runtime/server.h"
#include "runtime/trace_export.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/thread_pool.h"

namespace {

using namespace elk;

[[noreturn]] void
usage(const char* argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "       %s serve [options]   (serving runtime; see below)\n"
        "  --model NAME      built-in preset (Llama2-13B, Gemma2-27B,\n"
        "                    OPT-30B, Llama2-70B, DiT-XL)\n"
        "  --graph FILE.egf  load a serialized graph instead\n"
        "  --batch N         batch size (default 32)\n"
        "  --seq N           sequence length / KV depth (default 2048)\n"
        "  --mode M          basic|static|elk-dyn|elk-full|ideal\n"
        "  --topology T      all-to-all|mesh (default all-to-all)\n"
        "  --hbm-tbs X       total HBM bandwidth in TB/s (default 16)\n"
        "  --chips N         number of chips (default 4)\n"
        "  --save-graph F    write the built graph as EGF and exit\n"
        "  --dump-timing F   write per-op phase timings as CSV\n"
        "  --timeline        print an ASCII schedule timeline\n"
        "  --program         print the abstract device program head\n"
        "  --jobs N          compiler worker threads (1 serial, 0 = all\n"
        "                    hardware threads; plans are bit-identical\n"
        "                    at any setting)\n"
        "serve options (with --model/--batch/--seq/--mode/--topology/\n"
        "--hbm-tbs/--chips/--jobs as above):\n"
        "  --requests N      requests to serve (default 64)\n"
        "  --rate R          Poisson arrival rate in requests/s;\n"
        "                    0 = closed loop (default)\n"
        "  --tokens N        decode tokens per request (default 4)\n"
        "  --seed S          arrival trace + tagging seed (default 42)\n"
        "  --prefill-frac F  fraction of requests arriving in the\n"
        "                    prefill phase (default 0 = decode-only)\n"
        "  --high-frac F     fraction of requests that are\n"
        "                    high-priority (default 0)\n"
        "  --prefill-batch N largest prefill batch (default 4)\n"
        "  --prompt-buckets L1,L2,...\n"
        "                    prompt-length buckets prefill programs\n"
        "                    are compiled at (sorted, largest must\n"
        "                    equal --seq); default: powers of two up\n"
        "                    to --seq. A single bucket equal to --seq\n"
        "                    forces full-length prefill\n"
        "  --prompt-dist D   prompt lengths: 'full' (default; every\n"
        "                    prompt is --seq tokens) or\n"
        "                    'geometric:MEAN' (seeded geometric tail\n"
        "                    of that mean, clamped to --seq)\n"
        "  --policy P        residency policy: retire-order (default)\n"
        "                    or frequency\n"
        "  --kv-budget KB    per-core KV residency budget in KB; each\n"
        "                    request's decode KV state then occupies\n"
        "                    SRAM next to resident weights (0 =\n"
        "                    default: KV modeling off)\n"
        "  --kv-bytes-per-token B\n"
        "                    KV bytes one token appends machine-wide\n"
        "                    (default 0 = derive from the model\n"
        "                    geometry: 2 x layers x kv_heads x\n"
        "                    head_dim x dtype)\n"
        "  --prefix-pop N    distinct shared prompt prefixes, drawn\n"
        "                    Zipf per session (default 0 = prefix\n"
        "                    sharing off; requires --kv-budget > 0)\n"
        "  --turns T         mean prefill turns per session\n"
        "                    (geometric tail; default 1; requires\n"
        "                    --kv-budget > 0)\n"
        "  --think-time S    mean think-time in seconds between a\n"
        "                    session's turns (exponential; default 0;\n"
        "                    requires --kv-budget > 0)\n"
        "  --burst F         arrival burstiness: bursts run at F x\n"
        "                    the mean rate for ~10%% of the time\n"
        "                    (F in [1, 10); default 1 = plain\n"
        "                    Poisson; requires --kv-budget > 0)\n"
        "  --no-preempt      high-priority arrivals never interrupt a\n"
        "                    running iteration\n"
        "  --no-residency    re-preload weights every iteration\n"
        "  --cache-keys      list the plan-cache entries after serving\n"
        "  --replicas N      chip replicas behind the cluster router\n"
        "                    (default 1 = single-chip serving; > 1\n"
        "                    routes the trace across N replicas)\n"
        "  --router P        cluster router policy: rr (round-robin,\n"
        "                    default), least (least-loaded), or\n"
        "                    affinity (session-affinity; requires\n"
        "                    --prefix-pop > 0)\n"
        "  --interconnect T  chip-to-chip fabric: ring (default) or\n"
        "                    fullmesh; per-hop latency + per-byte\n"
        "                    bandwidth priced on KV migrations\n"
        "  --migrate-kv      migrate shared prefix KV segments across\n"
        "                    chips over the interconnect instead of\n"
        "                    re-prefilling per replica (requires\n"
        "                    --kv-budget > 0 and --prefix-pop > 0)\n"
        "  --prefill-replicas N\n"
        "                    dedicate the first N replicas to prompt\n"
        "                    ingestion, feeding the rest KV over the\n"
        "                    interconnect (requires --kv-budget > 0\n"
        "                    and N < --replicas)\n"
        "  --tenants N       tenants sharing the chip under weighted\n"
        "                    fair token shares, tagged per request\n"
        "                    from the trace seed (default 1; > 1\n"
        "                    enables SLO scheduling — docs/TENANCY.md)\n"
        "  --slo S           per-request completion deadline of\n"
        "                    arrival + S seconds, served earliest-\n"
        "                    deadline-first (default 0 = no deadlines;\n"
        "                    > 0 enables SLO scheduling)\n"
        "  --tenant-shares W1,W2,...\n"
        "                    per-tenant fairness weights, one positive\n"
        "                    weight per tenant (requires --tenants >=\n"
        "                    2; default: equal shares)\n"
        "  --preempt-budget N\n"
        "                    deadline preemptions one request may\n"
        "                    trigger (default 1; 0 disables deadline\n"
        "                    preemption; requires SLO scheduling)\n"
        "  --prefill-chunk N\n"
        "                    split prompts into chunks of at most N\n"
        "                    tokens (a power of two), interleaving\n"
        "                    decode between chunks (default 0 = off;\n"
        "                    needs a multi-entry prompt bucket ladder\n"
        "                    — docs/SERVING.md)\n"
        "  --kv-locality     decode claiming prefers requests whose\n"
        "                    KV segment is still resident; spilled\n"
        "                    requests run only when nothing resident\n"
        "                    can (requires --kv-budget > 0)\n",
        argv0, argv0);
    std::exit(2);
}

compiler::Mode
parse_mode(const std::string& mode)
{
    if (mode == "basic") return compiler::Mode::kBasic;
    if (mode == "static") return compiler::Mode::kStatic;
    if (mode == "elk-dyn") return compiler::Mode::kElkDyn;
    if (mode == "elk-full") return compiler::Mode::kElkFull;
    if (mode == "ideal") return compiler::Mode::kIdeal;
    util::fatal("unknown mode: " + mode);
}

hw::ChipConfig
parse_target(const std::string& topology, double hbm_tbs, int chips)
{
    hw::ChipConfig chip = hw::ChipConfig::ipu_pod4();
    chip.num_chips = chips;
    chip.hbm_total_bw = hbm_tbs * 1e12;
    if (topology == "mesh") {
        chip.topology = hw::TopologyKind::kMesh2D;
    } else if (topology != "all-to-all") {
        util::fatal("unknown topology: " + topology);
    }
    return chip;
}

/// The `elkc serve` subcommand: compile a decode-step family through
/// the plan cache and serve an arrival trace on the event-driven
/// runtime. @p argv0 is the real program name (argv here starts at
/// the subcommand), so usage() prints an invocable command line.
int
serve_main(int argc, char** argv, const char* argv0)
{
    std::string model_name = "Llama2-13B";
    std::string mode_name = "elk-full";
    std::string topology = "all-to-all";
    double hbm_tbs = 16.0;
    int chips = 4;
    int batch = 32;
    int seq = 2048;
    int requests = 64;
    double rate = 0.0;
    int tokens = 4;
    int seed = 42;
    int jobs = 1;
    double prefill_frac = 0.0;
    double high_frac = 0.0;
    int prefill_batch = 4;
    std::string prompt_buckets_arg;
    std::string prompt_dist = "full";
    std::string policy = "retire-order";
    int kv_budget_kb = 0;
    int kv_bytes_per_token = 0;
    int prefix_pop = 0;
    double turns = 1.0;
    double think_time = 0.0;
    double burst = 1.0;
    bool preempt = true;
    bool residency = true;
    bool cache_keys = false;
    int replicas = 1;
    std::string router = "rr";
    std::string interconnect = "ring";
    bool migrate_kv = false;
    int prefill_replicas = 0;
    int tenants = 1;
    double slo_s = 0.0;
    std::string tenant_shares_arg;
    int preempt_budget = 1;
    bool preempt_budget_set = false;
    int prefill_chunk = 0;
    bool kv_locality = false;

    for (int i = 1; i < argc; ++i) {
        auto arg = [&](const char* flag) {
            if (std::strcmp(argv[i], flag) != 0) {
                return static_cast<const char*>(nullptr);
            }
            if (i + 1 >= argc) {
                usage(argv0);
            }
            return static_cast<const char*>(argv[++i]);
        };
        if (const char* v = arg("--model")) {
            model_name = v;
        } else if (const char* v = arg("--mode")) {
            mode_name = v;
        } else if (const char* v = arg("--topology")) {
            topology = v;
        } else if (const char* v = arg("--hbm-tbs")) {
            hbm_tbs = util::parse_double_arg(v, "--hbm-tbs", 1e-3, 1e6);
        } else if (const char* v = arg("--chips")) {
            chips = util::parse_int_arg(v, "--chips", 1, 4096);
        } else if (const char* v = arg("--batch")) {
            batch = util::parse_int_arg(v, "--batch", 1, 4096);
        } else if (const char* v = arg("--seq")) {
            seq = util::parse_int_arg(v, "--seq", 1, 1 << 20);
        } else if (const char* v = arg("--requests")) {
            requests = util::parse_int_arg(v, "--requests", 1, 1 << 20);
        } else if (const char* v = arg("--rate")) {
            rate = util::parse_double_arg(v, "--rate", 0.0, 1e9);
        } else if (const char* v = arg("--tokens")) {
            tokens = util::parse_int_arg(v, "--tokens", 1, 1 << 20);
        } else if (const char* v = arg("--seed")) {
            seed = util::parse_int_arg(v, "--seed", 0,
                                       std::numeric_limits<int>::max());
        } else if (const char* v = arg("--jobs")) {
            jobs = util::ThreadPool::parse_jobs_arg(v, "--jobs");
        } else if (const char* v = arg("--prefill-frac")) {
            prefill_frac =
                util::parse_double_arg(v, "--prefill-frac", 0.0, 1.0);
        } else if (const char* v = arg("--high-frac")) {
            high_frac =
                util::parse_double_arg(v, "--high-frac", 0.0, 1.0);
        } else if (const char* v = arg("--prefill-batch")) {
            prefill_batch =
                util::parse_int_arg(v, "--prefill-batch", 1, 4096);
        } else if (const char* v = arg("--prompt-buckets")) {
            prompt_buckets_arg = v;
        } else if (const char* v = arg("--prompt-dist")) {
            prompt_dist = v;
        } else if (const char* v = arg("--policy")) {
            policy = v;
        } else if (const char* v = arg("--kv-budget")) {
            kv_budget_kb =
                util::parse_int_arg(v, "--kv-budget", 0, 1 << 30);
        } else if (const char* v = arg("--kv-bytes-per-token")) {
            kv_bytes_per_token = util::parse_int_arg(
                v, "--kv-bytes-per-token", 0, 1 << 30);
        } else if (const char* v = arg("--prefix-pop")) {
            prefix_pop =
                util::parse_int_arg(v, "--prefix-pop", 0, 1 << 20);
        } else if (const char* v = arg("--turns")) {
            turns = util::parse_double_arg(v, "--turns", 1.0, 1e6);
        } else if (const char* v = arg("--think-time")) {
            think_time =
                util::parse_double_arg(v, "--think-time", 0.0, 1e9);
        } else if (const char* v = arg("--burst")) {
            burst = util::parse_double_arg(v, "--burst", 1.0,
                                           10.0 - 1e-9);
        } else if (const char* v = arg("--replicas")) {
            replicas = util::parse_int_arg(v, "--replicas", 1, 4096);
        } else if (const char* v = arg("--router")) {
            router = v;
        } else if (const char* v = arg("--interconnect")) {
            interconnect = v;
        } else if (const char* v = arg("--prefill-replicas")) {
            prefill_replicas =
                util::parse_int_arg(v, "--prefill-replicas", 0, 4096);
        } else if (const char* v = arg("--tenants")) {
            tenants = util::parse_int_arg(v, "--tenants", 1, 1 << 20);
        } else if (const char* v = arg("--slo")) {
            slo_s = util::parse_double_arg(v, "--slo", 0.0, 1e9);
        } else if (const char* v = arg("--tenant-shares")) {
            tenant_shares_arg = v;
        } else if (const char* v = arg("--preempt-budget")) {
            preempt_budget =
                util::parse_int_arg(v, "--preempt-budget", 0, 1 << 20);
            preempt_budget_set = true;
        } else if (const char* v = arg("--prefill-chunk")) {
            prefill_chunk =
                util::parse_int_arg(v, "--prefill-chunk", 0, 1 << 20);
        } else if (std::strcmp(argv[i], "--kv-locality") == 0) {
            kv_locality = true;
        } else if (std::strcmp(argv[i], "--migrate-kv") == 0) {
            migrate_kv = true;
        } else if (std::strcmp(argv[i], "--no-preempt") == 0) {
            preempt = false;
        } else if (std::strcmp(argv[i], "--no-residency") == 0) {
            residency = false;
        } else if (std::strcmp(argv[i], "--cache-keys") == 0) {
            cache_keys = true;
        } else {
            usage(argv0);
        }
    }
    // Strict parses of the structured flags: a malformed bucket list
    // or distribution spec is fatal, never silently defaulted.
    std::vector<int> prompt_buckets;
    if (!prompt_buckets_arg.empty()) {
        // getline never yields the empty element after a trailing
        // delimiter, so reject it up front.
        if (prompt_buckets_arg.back() == ',') {
            util::fatal("--prompt-buckets: trailing ','");
        }
        std::stringstream ss(prompt_buckets_arg);
        std::string item;
        while (std::getline(ss, item, ',')) {
            prompt_buckets.push_back(util::parse_int_arg(
                item.c_str(), "--prompt-buckets", 1, 1 << 20));
        }
    }
    double prompt_mean = 0.0;  // 0 = full-length prompts
    if (prompt_dist.rfind("geometric:", 0) == 0) {
        prompt_mean = util::parse_double_arg(
            prompt_dist.c_str() + std::strlen("geometric:"),
            "--prompt-dist geometric:", 1e-9, 1e9);
    } else if (prompt_dist != "full") {
        util::fatal("unknown prompt distribution: " + prompt_dist +
                    " (expected 'full' or 'geometric:MEAN')");
    }
    sim::ResidencyPolicy residency_policy;
    if (policy == "retire-order") {
        residency_policy = sim::ResidencyPolicy::kRetireOrder;
    } else if (policy == "frequency") {
        residency_policy = sim::ResidencyPolicy::kFrequencyAware;
    } else {
        util::fatal("unknown residency policy: " + policy);
    }
    runtime::RouterPolicy router_policy;
    if (router == "rr") {
        router_policy = runtime::RouterPolicy::kRoundRobin;
    } else if (router == "least") {
        router_policy = runtime::RouterPolicy::kLeastLoaded;
    } else if (router == "affinity") {
        router_policy = runtime::RouterPolicy::kSessionAffinity;
    } else {
        util::fatal("unknown router policy: " + router +
                    " (expected 'rr', 'least', or 'affinity')");
    }
    hw::InterconnectConfig fabric;
    if (interconnect == "ring") {
        fabric.kind = hw::InterconnectKind::kRing;
    } else if (interconnect == "fullmesh") {
        fabric.kind = hw::InterconnectKind::kFullMesh;
    } else {
        util::fatal("unknown interconnect: " + interconnect +
                    " (expected 'ring' or 'fullmesh')");
    }
    // The session/prefix flags are only meaningful with KV modeling
    // on: shared prefixes and per-turn KV reuse live in the modeled
    // KV pool, so serving a session trace at --kv-budget 0 would
    // silently drop the very effect being measured.
    const bool session_trace = prefix_pop > 0 || turns > 1.0 ||
                               think_time > 0.0 || burst > 1.0;
    if (session_trace && kv_budget_kb == 0) {
        util::fatal(
            "--prefix-pop/--turns/--think-time/--burst need KV "
            "modeling: pass --kv-budget KB > 0 (shared prefixes and "
            "multi-turn KV reuse live in the modeled KV pool)");
    }
    // SLO scheduling (docs/TENANCY.md) switches on when anything
    // multi-tenant or deadline-shaped is asked for; the satellite
    // flags alone make no sense without it.
    std::vector<double> tenant_shares;
    if (!tenant_shares_arg.empty()) {
        if (tenants < 2) {
            util::fatal(
                "--tenant-shares needs --tenants >= 2: share weights "
                "divide the fairness window between tenants, and a "
                "single tenant always owns the whole window");
        }
        if (tenant_shares_arg.back() == ',') {
            util::fatal("--tenant-shares: trailing ','");
        }
        std::stringstream ss(tenant_shares_arg);
        std::string item;
        while (std::getline(ss, item, ',')) {
            tenant_shares.push_back(util::parse_double_arg(
                item.c_str(), "--tenant-shares", 1e-9, 1e9));
        }
        if (static_cast<int>(tenant_shares.size()) != tenants) {
            util::fatal("--tenant-shares: got " +
                        std::to_string(tenant_shares.size()) +
                        " weights for --tenants " +
                        std::to_string(tenants) +
                        " (pass exactly one positive weight per "
                        "tenant)");
        }
    }
    const bool slo_serving = tenants > 1 || slo_s > 0.0;
    if (preempt_budget_set && !slo_serving) {
        util::fatal(
            "--preempt-budget bounds deadline-triggered preemption, "
            "which only runs under SLO scheduling: pass --tenants >= "
            "2 or --slo S > 0 as well");
    }
    // Chunked prefill splits prompts across the (batch, length) bucket
    // grid; with the single full-length bucket of --prompt-dist full
    // and no --prompt-buckets ladder, every chunk would pad to the
    // full sequence. The Server constructor enforces the same rule on
    // the finalized ladder; this check fires first with flag names.
    if (prefill_chunk > 0 && prompt_buckets.size() == 1) {
        util::fatal(
            "--prefill-chunk needs a multi-entry prompt bucket ladder "
            "(varlen buckets): pass --prompt-buckets with >= 2 "
            "entries, or drop it to use the default power-of-two "
            "ladder");
    }
    if (kv_locality && kv_budget_kb == 0) {
        util::fatal(
            "--kv-locality steers decode claiming by KV residency, "
            "which only exists under KV modeling: pass --kv-budget "
            "KB > 0 as well");
    }

    hw::ChipConfig chip = parse_target(topology, hbm_tbs, chips);
    compiler::CompileOptions copts;
    copts.mode = parse_mode(mode_name);
    compiler::PlanCache cache;
    compiler::ServingCompiler sc(graph::model_by_name(model_name), seq,
                                 chip, copts, &cache, jobs);
    compiler::ServingCompiler pc(
        graph::model_by_name(model_name), seq, chip, copts, &cache,
        jobs, compiler::ServingCompiler::Options::prefill());

    runtime::ServerOptions sopts;
    sopts.max_batch = batch;
    sopts.tokens_per_request = tokens;
    sopts.max_prefill_batch = prefill_batch;
    sopts.max_prompt_len = seq;
    sopts.prompt_buckets = prompt_buckets;
    sopts.keep_resident = residency;
    sopts.residency_policy = residency_policy;
    sopts.preempt = preempt;
    sopts.kv_budget = static_cast<uint64_t>(kv_budget_kb) * 1024;
    sopts.kv_bytes_per_token =
        kv_bytes_per_token > 0
            ? static_cast<uint64_t>(kv_bytes_per_token)
            : graph::kv_bytes_per_token(
                  graph::model_by_name(model_name));
    sopts.prefix_sharing = prefix_pop > 0;
    sopts.slo = slo_serving;
    sopts.tenants = tenants;
    sopts.tenant_shares = tenant_shares;
    sopts.preempt_budget = preempt_budget;
    sopts.prefill_chunk = prefill_chunk;
    sopts.kv_locality = kv_locality;
    std::vector<runtime::Request> trace;
    if (session_trace) {
        runtime::SessionTraceOptions st;
        st.sessions = requests;
        st.rate_per_s = rate;
        st.burst_factor = burst;
        st.mean_turns = turns;
        st.think_time_s = think_time;
        st.decode_tokens = tokens;
        st.max_prompt_len = seq;
        st.prompt_mean_len = prompt_mean;
        st.prefix_population = prefix_pop;
        st.prefix_zipf_s = 1.0;
        st.prefix_mean_len =
            prefix_pop > 0
                ? (prompt_mean > 0.0 ? prompt_mean : seq / 8.0)
                : 0.0;
        trace = runtime::make_session_trace(
            st, static_cast<uint64_t>(seed));
    } else {
        std::vector<double> arrivals =
            rate > 0
                ? runtime::ArrivalTrace::poisson(
                      requests, rate, static_cast<uint64_t>(seed))
                : runtime::ArrivalTrace::closed_loop(requests);
        trace = runtime::make_request_trace(
            arrivals, tokens, prefill_frac, high_frac,
            static_cast<uint64_t>(seed));
        if (prompt_mean > 0.0) {
            runtime::tag_prompt_lengths(trace, seq, prompt_mean,
                                        static_cast<uint64_t>(seed));
        }
    }
    // Tenant/deadline tagging composes with either trace shape (the
    // streams are domain-separated from every other tagger's).
    if (slo_serving) {
        runtime::tag_tenants(trace, tenants,
                             static_cast<uint64_t>(seed));
        if (slo_s > 0.0) {
            runtime::tag_deadlines(trace, slo_s);
        }
    }

    std::printf("serving    : %s, %s, batch %d, seq %d\n",
                model_name.c_str(), sc.mode().c_str(), batch, seq);
    if (session_trace) {
        std::printf("trace      : %d sessions -> %d turns, mean %g "
                    "turns, think %g s, burst x%g, %d shared "
                    "prefixes\n",
                    requests, static_cast<int>(trace.size()), turns,
                    think_time, burst, prefix_pop);
    } else if (rate > 0) {
        std::printf("trace      : %d requests x %d tokens, "
                    "Poisson @ %g req/s\n",
                    requests, tokens, rate);
    } else {
        std::printf("trace      : %d requests x %d tokens, "
                    "closed loop\n",
                    requests, tokens);
    }
    std::printf("scheduler  : prefill-frac %g, high-frac %g, "
                "prompts %s, policy %s, preemption %s\n",
                prefill_frac, high_frac, prompt_dist.c_str(),
                sim::residency_policy_name(residency_policy).c_str(),
                preempt ? "on" : "off");
    if (sopts.kv_budget > 0) {
        std::printf("kv         : budget %d KB/core, %llu bytes/token "
                    "machine-wide\n",
                    kv_budget_kb,
                    static_cast<unsigned long long>(
                        sopts.kv_bytes_per_token));
    }
    if (slo_serving) {
        std::string shares = "equal";
        if (!tenant_shares.empty()) {
            std::ostringstream s;
            for (size_t i = 0; i < tenant_shares.size(); ++i) {
                s << (i ? ":" : "") << tenant_shares[i];
            }
            shares = s.str();
        }
        std::string deadline = "none";
        if (slo_s > 0.0) {
            std::ostringstream d;
            d << "arrival + " << slo_s << " s";
            deadline = d.str();
        }
        std::printf("slo        : %d tenants (shares %s), deadline "
                    "%s, preempt budget %d\n",
                    tenants, shares.c_str(), deadline.c_str(),
                    preempt_budget);
    }
    if (prefill_chunk > 0 || kv_locality) {
        std::printf("chunking   : prefill chunk %d, kv locality %s\n",
                    prefill_chunk, kv_locality ? "on" : "off");
    }
    auto prefill_programs = [&](int b, int len) {
        return pc.program(b, len);
    };
    auto decode_programs = [&](int b) { return sc.program(b); };
    if (replicas > 1 || prefill_replicas > 0 || migrate_kv) {
        runtime::ClusterOptions clopts;
        clopts.replicas = replicas;
        clopts.router = router_policy;
        clopts.server = sopts;
        clopts.interconnect = fabric;
        clopts.migrate_kv = migrate_kv;
        clopts.prefill_replicas = prefill_replicas;
        runtime::Cluster cluster(sc.machine(), clopts);
        std::printf("cluster    : %d replicas (%d prefill tier), "
                    "%s router, %s interconnect, KV migration %s\n",
                    replicas, prefill_replicas,
                    runtime::router_policy_name(router_policy).c_str(),
                    hw::interconnect_name(fabric.kind).c_str(),
                    migrate_kv ? "on" : "off");
        runtime::ClusterReport rep =
            cluster.serve(trace, prefill_programs, decode_programs);
        std::printf("%s\n", rep.summary().c_str());
    } else {
        runtime::Server server(sc.machine(), sopts);
        runtime::ServingReport rep =
            server.serve(trace, prefill_programs, decode_programs);
        std::printf("%s\n", rep.summary().c_str());
    }
    auto stats = cache.stats();
    std::printf("plan cache : %d entries, %lld hits, %lld misses "
                "(compile %.2f s total)\n",
                stats.entries, static_cast<long long>(stats.hits),
                static_cast<long long>(stats.misses),
                sc.compile_seconds() + pc.compile_seconds());
    if (cache_keys) {
        for (const std::string& key : cache.keys()) {
            std::printf("  %s\n", key.c_str());
        }
    }
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
        return serve_main(argc - 1, argv + 1, argv[0]);
    }
    std::string model_name = "Llama2-13B";
    std::string graph_file;
    std::string save_graph_file;
    std::string dump_timing_file;
    int batch = 32;
    int seq = 2048;
    std::string mode_name = "elk-full";
    std::string topology = "all-to-all";
    double hbm_tbs = 16.0;
    int chips = 4;
    int jobs = 1;
    bool show_timeline = false;
    bool show_program = false;

    for (int i = 1; i < argc; ++i) {
        auto arg = [&](const char* flag) {
            if (std::strcmp(argv[i], flag) != 0) {
                return static_cast<const char*>(nullptr);
            }
            if (i + 1 >= argc) {
                usage(argv[0]);
            }
            return static_cast<const char*>(argv[++i]);
        };
        if (const char* v = arg("--model")) {
            model_name = v;
        } else if (const char* v = arg("--graph")) {
            graph_file = v;
        } else if (const char* v = arg("--batch")) {
            batch = util::parse_int_arg(v, "--batch", 1, 4096);
        } else if (const char* v = arg("--seq")) {
            seq = util::parse_int_arg(v, "--seq", 1, 1 << 20);
        } else if (const char* v = arg("--mode")) {
            mode_name = v;
        } else if (const char* v = arg("--topology")) {
            topology = v;
        } else if (const char* v = arg("--hbm-tbs")) {
            hbm_tbs = util::parse_double_arg(v, "--hbm-tbs", 1e-3, 1e6);
        } else if (const char* v = arg("--chips")) {
            chips = util::parse_int_arg(v, "--chips", 1, 4096);
        } else if (const char* v = arg("--save-graph")) {
            save_graph_file = v;
        } else if (const char* v = arg("--dump-timing")) {
            dump_timing_file = v;
        } else if (const char* v = arg("--jobs")) {
            jobs = util::ThreadPool::parse_jobs_arg(v, "--jobs");
        } else if (std::strcmp(argv[i], "--timeline") == 0) {
            show_timeline = true;
        } else if (std::strcmp(argv[i], "--program") == 0) {
            show_program = true;
        } else {
            usage(argv[0]);
        }
    }

    // --- build the workload ---
    std::optional<graph::Graph> model;
    if (!graph_file.empty()) {
        model = frontend::load_graph(graph_file);
    } else if (model_name == "DiT-XL") {
        model = graph::build_dit_graph(graph::dit_xl(), batch, 256);
    } else {
        model = graph::build_decode_graph(
            graph::model_by_name(model_name), batch, seq);
    }
    if (!save_graph_file.empty()) {
        frontend::save_graph(*model, save_graph_file);
        std::printf("wrote %s (%d operators)\n", save_graph_file.c_str(),
                    model->size());
        return 0;
    }

    // --- target ---
    hw::ChipConfig chip = parse_target(topology, hbm_tbs, chips);

    // --- compile & run ---
    compiler::Mode mode = parse_mode(mode_name);
    compiler::CompileOptions opts;
    opts.mode = mode;
    compiler::Compiler comp(*model, chip, nullptr, jobs);
    auto compiled = comp.compile(opts);
    sim::Machine machine(chip, mode == compiler::Mode::kIdeal);
    auto run = runtime::run_plan(machine, *model, compiled.plan,
                                 comp.context());

    std::printf("model      : %s (%d ops)\n", model->name().c_str(),
                model->size());
    std::printf("target     : %d x %d cores, %s, %.1f TB/s HBM\n",
                chip.num_chips, chip.cores_per_chip,
                hw::topology_name(chip.topology).c_str(), hbm_tbs);
    std::printf("design     : %s (compiled in %.2f s, %d jobs)\n",
                compiled.plan.mode.c_str(), compiled.compile_seconds,
                comp.jobs());
    std::printf("latency    : %s ms\n",
                runtime::ms(run.total_time).c_str());
    std::printf("hbm util   : %s   noc util: %s\n",
                runtime::pct(run.hbm_util).c_str(),
                runtime::pct(run.noc_util).c_str());
    std::printf("tflops     : %.1f\n", run.achieved_tflops);
    std::printf("peak sram  : %lu KB/core (%s)\n",
                static_cast<unsigned long>(run.peak_sram_per_core / 1024),
                run.memory_exceeded ? "EXCEEDED" : "ok");

    if (show_program) {
        auto program = compiler::build_device_program(compiled.plan);
        compiler::DeviceProgram head(
            program.begin(),
            program.begin() + std::min<size_t>(12, program.size()));
        std::printf("\n%s...\n",
                    compiler::to_string(head, *model).c_str());
    }
    if (show_timeline) {
        std::printf("\n%s", runtime::timeline_summary(*model, run).c_str());
    }
    if (!dump_timing_file.empty()) {
        runtime::export_timing(*model, run, dump_timing_file);
        std::printf("wrote %s\n", dump_timing_file.c_str());
    }
    return 0;
}
