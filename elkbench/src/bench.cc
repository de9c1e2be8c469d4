#include "bench.h"

#include <sys/resource.h>

#include <cstdio>

#include "util/bits.h"

namespace elkbench {

std::vector<Metric>
list_metrics(const EndToEnd& e)
{
    return {
        {"setup_s", e.setup_s, "s"},
        {"compile_s", e.compile_s, "s"},
        {"host_req_per_s", e.host_req_per_s, "req/s"},
        {"peak_rss_mb", e.peak_rss_mb, "MB"},
        {"roofline_frac", e.roofline_frac, "ratio"},
        {"speedup_vs_basic", e.speedup_vs_basic, "x"},
        {"speedup_vs_static", e.speedup_vs_static, "x"},
        {"sim_ttft_p50_ms", e.sim_ttft_p50_ms, "sim_ms"},
        {"sim_ttft_p95_ms", e.sim_ttft_p95_ms, "sim_ms"},
        {"sim_latency_p99_ms", e.sim_latency_p99_ms, "sim_ms"},
        {"sim_goodput_tok_s", e.sim_goodput_tok_s, "tok/sim_s"},
        {"sim_slo_attainment", e.sim_slo_attainment, "share"},
    };
}

std::vector<Metric>
list_metrics(const Layers& l)
{
    std::vector<Metric> out = {
        {"graph.build_s", l.graph_build_s, "s"},
        {"graph.ops", l.graph_ops, "count"},
        {"elk.analysis_s", l.elk_analysis_s, "s"},
        {"plan.max_plans", l.plan_max_plans, "count"},
        {"elk.fit_window", l.elk_fit_window, "count"},
    };
    for (int d = 0; d < 5; ++d) {
        out.push_back({std::string("elk.schedule_s.") + design_key(d),
                       l.elk_schedule_s[d], "s"});
    }
    const std::vector<Metric> rest = {
        {"elk.orders_tested", l.elk_orders_tested, "count"},
        {"runtime.lower_s", l.runtime_lower_s, "s"},
        {"sim.program_ops", l.sim_program_ops, "count"},
        {"sim.engine_s", l.sim_engine_s, "s"},
        {"sim.overlap_frac", l.sim_overlap_frac, "ratio"},
        {"sim.hbm_util", l.sim_hbm_util, "ratio"},
        {"sim.noc_util", l.sim_noc_util, "ratio"},
        {"sim.interconnect_stall_ms", l.sim_interconnect_stall_ms, "sim_ms"},
        {"elk.program_cold_s", l.elk_program_cold_s, "s"},
        {"elk.programs_compiled", l.elk_programs_compiled, "count"},
        {"elk.program_warm_s", l.elk_program_warm_s, "s"},
        {"elk.program_calls", l.elk_program_calls, "count"},
        {"runtime.serve_self_s", l.runtime_serve_self_s, "s"},
        {"runtime.host_us_per_iteration", l.runtime_host_us_per_iteration,
         "us"},
        {"runtime.iterations", l.runtime_iterations, "count"},
        {"runtime.prefill_iterations", l.runtime_prefill_iterations, "count"},
        {"runtime.decode_iterations", l.runtime_decode_iterations, "count"},
        {"runtime.batch_fill", l.runtime_batch_fill, "ratio"},
        {"runtime.prompt_pad_ratio", l.runtime_prompt_pad_ratio, "ratio"},
        {"runtime.queue_depth_mean", l.runtime_queue_depth_mean, "count"},
        {"runtime.queue_depth_peak", l.runtime_queue_depth_peak, "count"},
        {"sim.preloads_skipped", l.sim_preloads_skipped, "count"},
        {"runtime.preemptions", l.runtime_preemptions, "count"},
        {"runtime.deadline_preemptions", l.runtime_deadline_preemptions,
         "count"},
        {"runtime.prefill_chunks", l.runtime_prefill_chunks, "count"},
        {"runtime.chunk_decode_interleaves",
         l.runtime_chunk_decode_interleaves, "count"},
        {"runtime.fairness_windows", l.runtime_fairness_windows, "count"},
        {"runtime.route_s", l.runtime_route_s, "s"},
        {"runtime.util_skew", l.runtime_util_skew, "ratio"},
        {"runtime.replica_iterations_max", l.runtime_replica_iterations_max,
         "count"},
        {"sim.kv_evictions", l.sim_kv_evictions, "count"},
        {"sim.kv_refetches", l.sim_kv_refetches, "count"},
        {"sim.kv_stall_ms", l.sim_kv_stall_ms, "sim_ms"},
        {"runtime.deferred_admissions", l.runtime_deferred_admissions,
         "count"},
        {"runtime.prefix_hit_ratio", l.runtime_prefix_hit_ratio, "ratio"},
        {"runtime.kv_migrations", l.runtime_kv_migrations, "count"},
        {"runtime.interconnect_bytes", l.runtime_interconnect_bytes, "bytes"},
        {"runtime.kv_migration_stall_ms", l.runtime_kv_migration_stall_ms,
         "sim_ms"},
        {"trace.overhead_frac", l.trace_overhead_frac, "ratio"},
    };
    out.insert(out.end(), rest.begin(), rest.end());
    return out;
}

void
Outcome::count(int64_t n, const std::vector<std::string>& found,
               const std::string& where)
{
    attempted += n;
    if (!found.empty()) {
        failed += n;
        for (const std::string& v : found) {
            violations.push_back(where + ": " + v);
        }
    }
}

void
check_digest(const RunConfig& cfg, const std::string& key,
             const std::string& digest, const std::string& expected,
             std::vector<std::string>& found)
{
    if (digest != expected) {
        found.push_back(key + " digest " + digest +
                        " differs from the first run's " + expected);
    }
    auto it = cfg.reference.find(key);
    if (it == cfg.reference.end()) {
        found.push_back(key + " has no recorded reference digest");
    } else if (it->second != digest) {
        found.push_back(key + " digest " + digest +
                        " differs from the reference " + it->second);
    }
}

void
Outcome::check_spans(const Tracer& tracer)
{
    const std::string bad = check_span_trees(tracer.spans());
    if (!bad.empty()) {
        violations.push_back("span trees: " + bad);
        ++failed;
    }
}

double
peak_rss_mb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string
digest_of(const std::string& bits)
{
    elk::util::Fnv1a h;
    h.mix(bits.data(), bits.size());
    return h.hex();
}

std::string
fmt(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
    return buf;
}

}  // namespace elkbench
