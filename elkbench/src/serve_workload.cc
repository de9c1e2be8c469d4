/**
 * @file
 * serve_chip and serve_cluster: Llama2-13B Elk-Full serving at seq 512
 * on IPU-POD4, one chip under multi-tenant SLO scheduling with chunked
 * prefill, or four replicas behind a round-robin router with KV
 * migration over a ring. Set-up is the cold compile and lowering of
 * every bucket program the server can ask for; the measured unit is
 * one Server::serve / Cluster::serve call over one trace, and a run
 * serves several traces drawn from its seed.
 */
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "design_row.h"
#include "elk/serving_compiler.h"
#include "graph/model_builder.h"
#include "runtime/cluster.h"
#include "runtime/server.h"
#include "stats.h"

namespace elkbench {

namespace {

namespace ec = elk::compiler;
namespace rt = elk::runtime;

constexpr int kSeq = 512;
constexpr int kMaxBatch = 8;
/// Set-up rounds per run. A round takes about 4 s and the host's speed
/// swings by 20% from one round to the next, so the run reports the
/// median of several.
constexpr int kSetupReps = 5;
/// A run serves several independent traces drawn from its seed and
/// reports the median of each simulated metric over them, so one
/// bursty trace cannot move a run's figures. Trace i of seed N uses
/// sub-seed N * kSubSeeds + i.
constexpr uint64_t kSubSeeds = 64;

// serve_chip: open-loop Poisson traces below the chip's capacity.
constexpr int kChipTraces = 12;
constexpr int kChipRequests = 500;
constexpr double kChipRate = 70.0;
constexpr int kChipDecodeTokens = 16;
constexpr double kChipSloS = 0.25;

// serve_cluster: multi-turn session traces over 8 shared prefixes.
constexpr int kClusterTraces = 8;
constexpr int kClusterSessions = 400;
constexpr double kClusterSessionRate = 30.0;
constexpr int kClusterDecodeTokens = 4;

/// One generated trace and, for the cluster, its routing decision.
struct Trace {
    std::vector<rt::Request> requests;
    std::vector<int> route;  ///< replica per request (cluster only).
};

/// One serve workload: its options and the traces the seed fixes.
struct Spec {
    bool cluster = false;
    rt::ClusterOptions opts;  ///< opts.server serves the single chip.
    std::vector<Trace> traces;
};

elk::hw::ChipConfig
chip()
{
    return elk::hw::ChipConfig::ipu_pod4();
}

rt::ServerOptions
base_server()
{
    rt::ServerOptions o;
    o.max_batch = kMaxBatch;
    o.batch_buckets = {1, 2, 3, 4, 5, 6, 7, 8};
    o.max_prefill_batch = 2;
    o.max_prompt_len = kSeq;
    o.prompt_buckets = {64, 256, 512};
    return o;
}

std::vector<rt::Request>
chip_trace(uint64_t seed)
{
    auto trace = rt::prefill_requests(
        rt::ArrivalTrace::poisson(kChipRequests, kChipRate, seed),
        kChipDecodeTokens);
    rt::tag_prompt_lengths(trace, kSeq, kSeq / 8.0, seed);
    rt::tag_tenants(trace, 3, seed);
    rt::tag_deadlines(trace, kChipSloS);
    return trace;
}

std::vector<rt::Request>
cluster_trace(uint64_t seed)
{
    rt::SessionTraceOptions st;
    st.sessions = kClusterSessions;
    st.rate_per_s = kClusterSessionRate;
    st.burst_factor = 2.0;
    st.mean_turns = 3.0;
    st.think_time_s = 0.02;
    st.decode_tokens = kClusterDecodeTokens;
    st.max_prompt_len = kSeq;
    st.prompt_mean_len = kSeq / 8.0;
    st.prefix_population = 8;
    st.prefix_zipf_s = 1.0;
    st.prefix_mean_len = kSeq / 8.0;
    return rt::make_session_trace(st, seed);
}

Spec
make_spec(const std::string& workload, uint64_t seed)
{
    Spec s;
    s.cluster = workload == "serve_cluster";
    rt::ServerOptions& o = s.opts.server;
    o = base_server();
    if (s.cluster) {
        o.kv_budget = chip().usable_sram_per_core() / 8;
        o.kv_bytes_per_token =
            elk::graph::kv_bytes_per_token(elk::graph::llama2_13b());
        o.prefix_sharing = true;
        s.opts.replicas = 4;
        s.opts.router = rt::RouterPolicy::kRoundRobin;
        s.opts.interconnect.kind = elk::hw::InterconnectKind::kRing;
        s.opts.migrate_kv = true;
    } else {
        o.slo = true;
        o.tenants = 3;
        o.tenant_shares = {4.0, 2.0, 1.0};
        o.prefill_chunk = kSeq / 16;
        // A chunk-sized bucket, so chunks do not pad to the 64 bucket.
        o.prompt_buckets = {kSeq / 16, 64, 256, 512};
    }
    const elk::sim::Machine machine(chip());
    const int traces = s.cluster ? kClusterTraces : kChipTraces;
    for (int i = 0; i < traces; ++i) {
        const uint64_t sub = seed * kSubSeeds + i;
        Trace t;
        t.requests = s.cluster ? cluster_trace(sub) : chip_trace(sub);
        if (s.cluster) {
            t.route = rt::Cluster(machine, s.opts).route(t.requests);
        }
        s.traces.push_back(std::move(t));
    }
    return s;
}

/// The decode and prefill serving compilers of one set-up round.
struct Compilers {
    std::unique_ptr<ec::ServingCompiler> decode;
    std::unique_ptr<ec::ServingCompiler> prefill;

    Compilers()
    {
        ec::CompileOptions copts;
        copts.mode = ec::Mode::kElkFull;
        decode = std::make_unique<ec::ServingCompiler>(
            elk::graph::llama2_13b(), kSeq, chip(), copts, nullptr,
            /*jobs=*/1);
        prefill = std::make_unique<ec::ServingCompiler>(
            elk::graph::llama2_13b(), kSeq, chip(), copts, nullptr,
            /*jobs=*/1, ec::ServingCompiler::Options::prefill());
    }
};

/// A bucket program: (prefill?, batch, prompt_len).
using Bucket = std::tuple<bool, int, int>;

std::shared_ptr<const elk::sim::SimProgram>
program(Compilers& comp, const Bucket& b)
{
    const auto [prefill, batch, len] = b;
    return prefill ? comp.prefill->program(batch, len)
                   : comp.decode->program(batch);
}

/**
 * Every bucket program the server can ask for under @p spec's options:
 * each decode batch bucket, and each prefill batch bucket at every
 * prompt bucket a prompt (or, with chunking, a chunk) can land in.
 */
std::vector<Bucket>
reachable_buckets(const Spec& spec)
{
    const elk::sim::Machine machine(chip());
    const rt::ServerOptions o =
        rt::Server(machine, spec.opts.server).options();
    std::set<int> lens;
    const int longest =
        o.prefill_chunk > 0 ? o.prefill_chunk : o.max_prompt_len;
    for (int len = 1; len <= longest; ++len) {
        lens.insert(rt::pick_bucket(o.prompt_buckets, len));
    }
    std::vector<Bucket> out;
    for (int b : o.batch_buckets) {
        out.emplace_back(false, b, kSeq);
    }
    for (int b : o.prefill_buckets) {
        for (int len : lens) {
            out.emplace_back(true, b, len);
        }
    }
    return out;
}

/// The program callbacks handed to serve: counts calls and, under a
/// tracer, records each as an elk.program_warm span.
struct Callbacks {
    Compilers* comp = nullptr;
    Tracer* tracer = nullptr;
    int64_t calls = 0;

    std::shared_ptr<const elk::sim::SimProgram>
    get(const Bucket& b)
    {
        ++calls;
        Scope s(tracer, "elk.program_warm");
        return program(*comp, b);
    }
    rt::Server::PrefillProgramSource
    prefill()
    {
        return [this](int b, int len) { return get({true, b, len}); };
    }
    rt::Server::ProgramSource
    decode()
    {
        return [this](int b) { return get({false, b, kSeq}); };
    }
};

/// One serve's result, reduced to what the metrics and checks need.
struct Served {
    double wall_s = 0.0;  ///< the serve call alone.
    std::string digest;
    std::vector<std::string> violations;
    rt::ServingReport chip;     ///< the single chip's report.
    rt::ClusterReport cluster;  ///< the cluster roll-up.
};

Served
serve_once(const Spec& spec, const Trace& trace, Callbacks& cb,
           Tracer* tracer)
{
    Served out;
    const elk::sim::Machine& machine = cb.comp->decode->machine();
    if (spec.cluster) {
        const rt::Cluster cluster(machine, spec.opts);
        {
            Scope s(tracer, "runtime.serve");
            auto t0 = Clock::now();
            out.cluster =
                cluster.serve(trace.requests, cb.prefill(), cb.decode());
            out.wall_s = seconds_since(t0);
        }
        out.digest = digest_of(out.cluster.serialize_bits());
        out.violations = check_cluster(trace.requests, spec.opts, trace.route,
                                       out.cluster);
    } else {
        const rt::Server server(machine, spec.opts.server);
        {
            Scope s(tracer, "runtime.serve");
            auto t0 = Clock::now();
            out.chip = server.serve(trace.requests, cb.prefill(), cb.decode());
            out.wall_s = seconds_since(t0);
        }
        out.digest = digest_of(out.chip.serialize_bits());
        out.violations =
            check_serving(trace.requests, spec.opts.server, out.chip);
    }
    return out;
}

/// Every chip report of a serve (one, or one per replica).
std::vector<const rt::ServingReport*>
chip_reports(const Spec& spec, const Served& s)
{
    std::vector<const rt::ServingReport*> out;
    if (spec.cluster) {
        for (const auto& r : s.cluster.replica_reports) {
            out.push_back(&r);
        }
    } else {
        out.push_back(&s.chip);
    }
    return out;
}

/// The simulated end-to-end metrics of one serve of @p trace.
EndToEnd
simulated(const Spec& spec, const Trace& trace, const Served& s)
{
    EndToEnd e;
    if (spec.cluster) {
        const WorstReplica w = worst_replica(s.cluster);
        e.sim_ttft_p50_ms = w.ttft_p50 * 1e3;
        e.sim_ttft_p95_ms = w.ttft_p95 * 1e3;
        e.sim_latency_p99_ms = w.latency_p99 * 1e3;
        e.sim_goodput_tok_s = s.cluster.tokens_per_s;
        e.sim_slo_attainment = 1.0;  // no deadlines: all requests complete
        return e;
    }
    e.sim_ttft_p50_ms = s.chip.p50_ttft * 1e3;
    e.sim_ttft_p95_ms = s.chip.p95_ttft * 1e3;
    e.sim_latency_p99_ms = s.chip.p99_latency * 1e3;
    e.sim_goodput_tok_s = s.chip.tokens_per_s;
    // Carriers that were never completed count as misses.
    int carriers = 0;
    for (const auto& r : trace.requests) {
        carriers += r.deadline_s > 0.0 ? 1 : 0;
    }
    e.sim_slo_attainment =
        static_cast<double>(s.chip.deadline_requests - s.chip.deadline_misses) /
        carriers;
    return e;
}

/// The per-layer counts of @p served (one serve of each trace): counts
/// are means per serve, ratios are taken over all serves together,
/// peaks are maxima.
void
fill_layers(const Spec& spec, const std::vector<Served>& served, Layers& l)
{
    int64_t decode_tokens = 0;
    int64_t decode_iters = 0;
    int64_t prompt = 0;
    int64_t padded = 0;
    int64_t hit = 0;
    double queue_sum = 0.0;
    int chips = 0;
    for (const Served& s : served) {
        double iterations_max = 0.0;
        for (const rt::ServingReport* r : chip_reports(spec, s)) {
            l.runtime_iterations += r->iterations;
            l.runtime_prefill_iterations += r->prefill_iterations;
            l.runtime_decode_iterations += r->decode_iterations;
            decode_tokens += r->tokens;
            decode_iters += r->decode_iterations;
            prompt += r->prompt_tokens;
            padded += r->padded_prompt_tokens;
            hit += r->prefix_hit_tokens;
            queue_sum += r->mean_queue_depth;
            ++chips;
            l.runtime_queue_depth_peak = std::max<double>(
                l.runtime_queue_depth_peak, r->peak_queue_depth);
            l.sim_preloads_skipped += r->preloads_skipped;
            l.runtime_preemptions += r->preemptions;
            l.runtime_deadline_preemptions += r->deadline_preemptions;
            l.runtime_prefill_chunks += r->prefill_chunks;
            l.runtime_chunk_decode_interleaves += r->chunk_decode_interleaves;
            l.runtime_fairness_windows += r->fairness_windows;
            iterations_max = std::max<double>(iterations_max, r->iterations);
            l.sim_kv_evictions += r->kv_evictions;
            l.sim_kv_refetches += r->kv_refetches;
            l.sim_kv_stall_ms += r->kv_stall * 1e3;
            l.runtime_deferred_admissions += r->deferred_admissions;
        }
        l.runtime_replica_iterations_max += iterations_max;
        if (spec.cluster) {
            l.runtime_util_skew += s.cluster.util_skew;
            l.runtime_kv_migrations += s.cluster.kv_migrations;
            l.runtime_interconnect_bytes += s.cluster.interconnect_bytes;
            l.runtime_kv_migration_stall_ms +=
                s.cluster.kv_migration_stall * 1e3;
        }
    }
    const double n = static_cast<double>(served.size());
    for (double* count :
         {&l.runtime_iterations, &l.runtime_prefill_iterations,
          &l.runtime_decode_iterations, &l.sim_preloads_skipped,
          &l.runtime_preemptions, &l.runtime_deadline_preemptions,
          &l.runtime_prefill_chunks, &l.runtime_chunk_decode_interleaves,
          &l.runtime_fairness_windows, &l.runtime_replica_iterations_max,
          &l.sim_kv_evictions, &l.sim_kv_refetches, &l.sim_kv_stall_ms,
          &l.runtime_deferred_admissions, &l.runtime_util_skew,
          &l.runtime_kv_migrations, &l.runtime_interconnect_bytes,
          &l.runtime_kv_migration_stall_ms}) {
        *count /= n;
    }
    l.runtime_batch_fill = static_cast<double>(decode_tokens) /
                           (static_cast<double>(decode_iters) * kMaxBatch);
    l.runtime_prompt_pad_ratio =
        static_cast<double>(prompt) / static_cast<double>(prompt + padded);
    l.runtime_queue_depth_mean = queue_sum / chips;
    l.runtime_prefix_hit_ratio =
        static_cast<double>(hit) / static_cast<double>(prompt + hit);
}

/// The five designs at the serving decode shape (the largest decode
/// bucket); @p graph_ops receives the graph's operator count.
RowResult
serve_shape(Tracer* tracer, int& graph_ops)
{
    const elk::graph::Graph graph = [&] {
        Scope s(tracer, "graph.build");
        return elk::graph::build_decode_graph(elk::graph::llama2_13b(),
                                              kMaxBatch, kSeq);
    }();
    graph_ops = graph.size();
    return run_design_row(graph, chip(), /*max_orders=*/24, tracer);
}

std::string
row_digest(const RowResult& row)
{
    std::string all;
    for (const std::string& d : row.plan_digest) {
        all += d;
    }
    return digest_of(all);
}

void
serve_shape_row(const RunConfig& cfg, Tracer* tracer, Outcome& out)
{
    int graph_ops = 0;
    const RowResult row = serve_shape(tracer, graph_ops);
    std::vector<std::string> found = check_design_row(row.row);
    const std::string digest = row_digest(row);
    check_digest(cfg, "serve_shape/plans", digest, digest, found);
    out.count(5, found, "serving-shape designs");
    const auto& lat = row.row.latency;
    out.e2e.roofline_frac = lat[4] / lat[3];
    out.e2e.speedup_vs_basic = lat[0] / lat[3];
    out.e2e.speedup_vs_static = lat[1] / lat[3];
    Layers& l = out.layers;
    l.graph_ops = graph_ops;
    l.plan_max_plans = row.max_plans;
    l.elk_fit_window = row.fit_window;
    l.elk_orders_tested = row.orders_tested;
    l.sim_program_ops = row.program_ops;
    l.sim_overlap_frac = row.full.overlapped / row.full.total_time;
    l.sim_hbm_util = row.full.hbm_util;
    l.sim_noc_util = row.full.noc_util;
    l.sim_interconnect_stall_ms = row.full.interconnect_stall * 1e3;
    out.tables.push_back(
        {"designs at the serving shape (Llama2-13B decode, batch 8, seq 512; "
         "simulated)",
         {"Basic ms", "Static ms", "Elk-Dyn ms", "Elk-Full ms", "Ideal ms",
          "Ideal/Full", "Basic/Full", "Static/Full"},
         {{fmt(lat[0] * 1e3), fmt(lat[1] * 1e3), fmt(lat[2] * 1e3),
           fmt(lat[3] * 1e3), fmt(lat[4] * 1e3), fmt(lat[4] / lat[3]),
           fmt(lat[0] / lat[3]), fmt(lat[1] / lat[3])}}});
}

/// Digest over every trace's report digest: one reference per seed.
std::string
combined_digest(const std::vector<Served>& served)
{
    std::string all;
    for (const Served& s : served) {
        all += s.digest;
    }
    return digest_of(all);
}

}  // namespace

Outcome
run_serve(const RunConfig& cfg)
{
    Outcome out;
    Tracer tracer;
    Tracer* tr = cfg.trace ? &tracer : nullptr;
    const Spec spec = make_spec(cfg.workload, cfg.seed);
    const size_t k = spec.traces.size();

    // --- set-up, repeated: fresh compilers, then the cold compile and
    // lowering of every bucket program the server can ask for. The
    // median round counts; the last round's compilers serve below. ---
    const std::vector<Bucket> buckets = reachable_buckets(spec);
    std::vector<double> setup_s;
    std::vector<double> compile_s;
    std::unique_ptr<Compilers> comp;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        tracer.next_run();
        Scope s(tr, "setup");
        auto t0 = Clock::now();
        comp = std::make_unique<Compilers>();
        const double ctor_s = seconds_since(t0);
        for (const Bucket& b : buckets) {
            Scope p(tr, "elk.program_cold");
            program(*comp, b);
        }
        setup_s.push_back(seconds_since(t0));
        compile_s.push_back(setup_s.back() - ctor_s);
    }

    // --- measured serves on the warm compilers: one untimed warm-up
    // serve of trace 0, then the traces in turn until every trace has
    // been served and the time is spent. A trace's first serve is its
    // reference; every later serve must reproduce it. A traced run
    // follows each untraced serve with a traced serve of the same trace
    // while time remains; the pairs give the tracing overhead. ---
    std::vector<Served> first(k);
    std::vector<double> s_per_req;
    std::vector<double> overhead;
    int traced_serves = 0;
    int64_t traced_calls = 0;
    int64_t traced_iterations = 0;
    auto compiled_so_far = [&] {
        return comp->decode->compile_seconds() +
               comp->prefill->compile_seconds();
    };
    const double compiled_s = compiled_so_far();
    auto serve = [&](size_t i, Tracer* t) {
        const Trace& trace = spec.traces[i];
        tracer.next_run();
        Callbacks cb;
        cb.comp = comp.get();
        cb.tracer = t;
        if (spec.cluster && t != nullptr) {
            // Cluster::route timed alone on the same trace.
            Scope s(t, "runtime.route");
            rt::Cluster(comp->decode->machine(), spec.opts)
                .route(trace.requests);
        }
        Served s = serve_once(spec, trace, cb, t);
        if (first[i].digest.empty()) {
            first[i] = s;
        }
        if (s.digest != first[i].digest) {
            s.violations.push_back("report digest " + s.digest +
                                   " differs from the trace's first serve " +
                                   first[i].digest);
        }
        if (compiled_so_far() != compiled_s) {
            s.violations.push_back("a serve compiled a bucket set-up missed");
        }
        out.count(static_cast<int64_t>(trace.requests.size()), s.violations,
                  "serve of trace " + std::to_string(i));
        if (t != nullptr) {
            ++traced_serves;
            traced_calls += cb.calls;
            for (const rt::ServingReport* r : chip_reports(spec, s)) {
                traced_iterations += r->iterations;
            }
        }
        return s.wall_s / trace.requests.size();
    };
    serve(0, nullptr);
    auto start = Clock::now();
    for (size_t n = 0; n < k || seconds_since(start) < cfg.seconds; ++n) {
        const double untraced = serve(n % k, nullptr);
        s_per_req.push_back(untraced);
        if (cfg.trace && (traced_serves == 0 ||
                          seconds_since(start) < cfg.seconds)) {
            overhead.push_back(serve(n % k, tr) / untraced - 1.0);
        }
    }
    const std::string seed_key =
        cfg.workload + "/seed/" + std::to_string(cfg.seed);
    if (cfg.reference.count(seed_key) == 0) {
        // Only a range of seeds is recorded: the repeats still have to
        // agree with each trace's first serve (checked above).
        out.notes.push_back("seed " + std::to_string(cfg.seed) +
                            " has no recorded digest in the reference; "
                            "its serves were compared with each other only");
    } else {
        const std::string digest = combined_digest(first);
        std::vector<std::string> found;
        check_digest(cfg, seed_key, digest, digest, found);
        if (!found.empty()) {
            // The seed's traces as a whole differ: fail every request.
            out.failed = out.attempted;
            out.violations.insert(out.violations.end(), found.begin(),
                                  found.end());
        }
    }
    serve_shape_row(cfg, tr, out);

    EndToEnd& e = out.e2e;
    e.setup_s = median(setup_s);
    e.compile_s = median(compile_s);
    e.host_req_per_s = 1.0 / median(s_per_req);
    std::vector<double> ttft50, ttft95, p99, goodput, slo;
    Table per_trace{"simulated metrics per trace (the run reports their "
                    "medians)",
                    {"trace", "requests", "ttft p50 ms", "ttft p95 ms",
                     "latency p99 ms", "goodput tok/s", "slo attainment"},
                    {}};
    for (size_t i = 0; i < k; ++i) {
        const EndToEnd x = simulated(spec, spec.traces[i], first[i]);
        ttft50.push_back(x.sim_ttft_p50_ms);
        ttft95.push_back(x.sim_ttft_p95_ms);
        p99.push_back(x.sim_latency_p99_ms);
        goodput.push_back(x.sim_goodput_tok_s);
        slo.push_back(x.sim_slo_attainment);
        per_trace.rows.push_back(
            {std::to_string(i), std::to_string(spec.traces[i].requests.size()),
             fmt(x.sim_ttft_p50_ms), fmt(x.sim_ttft_p95_ms),
             fmt(x.sim_latency_p99_ms), fmt(x.sim_goodput_tok_s),
             fmt(x.sim_slo_attainment)});
    }
    out.tables.push_back(per_trace);
    e.sim_ttft_p50_ms = median(ttft50);
    e.sim_ttft_p95_ms = median(ttft95);
    e.sim_latency_p99_ms = median(p99);
    e.sim_goodput_tok_s = median(goodput);
    e.sim_slo_attainment = median(slo);
    e.peak_rss_mb = peak_rss_mb();

    if (!cfg.trace) {
        return out;
    }
    out.check_spans(tracer);
    const auto totals = totals_by_name(tracer.spans());
    auto total = [&](const char* name) {
        auto it = totals.find(name);
        return it == totals.end() ? SpanTotals{} : it->second;
    };
    const double serves = traced_serves;
    Layers& l = out.layers;
    fill_layers(spec, first, l);
    // The serving-shape row ran once, traced.
    l.graph_build_s = total("graph.build").total_s;
    l.elk_analysis_s = total("elk.analysis").total_s;
    for (int d = 0; d < 5; ++d) {
        l.elk_schedule_s[d] = total(schedule_span_name(d)).total_s;
    }
    l.runtime_lower_s = total("runtime.lower").total_s;
    l.sim_engine_s = total("sim.engine").total_s;
    // Set-up rounds and serves are traced per program call.
    l.elk_program_cold_s = total("elk.program_cold").total_s / kSetupReps;
    l.elk_programs_compiled = static_cast<double>(buckets.size());
    l.elk_program_warm_s = total("elk.program_warm").total_s / serves;
    l.elk_program_calls = traced_calls / serves;
    l.runtime_serve_self_s = total("runtime.serve").self_s / serves;
    l.runtime_host_us_per_iteration =
        total("runtime.serve").self_s / traced_iterations * 1e6;
    l.runtime_route_s = total("runtime.route").total_s / serves;
    l.trace_overhead_frac = median(overhead);
    if (!cfg.trace_path.empty() && !tracer.write_chrome_json(cfg.trace_path)) {
        out.violations.push_back("cannot write " + cfg.trace_path);
        ++out.failed;
    }
    return out;
}

std::map<std::string, std::string>
record_serve(const std::string& workload, const std::vector<uint64_t>& seeds)
{
    std::map<std::string, std::string> out;
    int graph_ops = 0;
    out["serve_shape/plans"] = row_digest(serve_shape(nullptr, graph_ops));
    Compilers comp;
    for (uint64_t seed : seeds) {
        const Spec spec = make_spec(workload, seed);
        std::vector<Served> served;
        for (const Trace& t : spec.traces) {
            Callbacks cb;
            cb.comp = &comp;
            served.push_back(serve_once(spec, t, cb, nullptr));
        }
        out[workload + "/seed/" + std::to_string(seed)] =
            combined_digest(served);
    }
    return out;
}

}  // namespace elkbench
