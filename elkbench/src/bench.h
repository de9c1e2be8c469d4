/**
 * @file
 * What every workload of the benchmark receives and returns.
 *
 * Every workload fills the same two metric sets: EndToEnd (reported
 * by untraced runs) and Layers (reported by the traced run). A field
 * a workload does not exercise keeps its documented value — 0 for a
 * layer the workload bypasses — so every run prints every metric
 * BENCHMARK.json names.
 */
#ifndef ELKBENCH_BENCH_H
#define ELKBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracer.h"

namespace elkbench {

/// Command-line settings of one run.
struct RunConfig {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;  ///< measuring time of the run.
    bool trace = false;     ///< report per-layer metrics (traced run).
    std::string trace_path; ///< Chrome trace JSON output (trace only).
    /// Recorded reference digests, key -> digest (reference.txt).
    std::map<std::string, std::string> reference;
};

/// End-to-end metrics (README.md defines each per workload).
struct EndToEnd {
    double setup_s = 0.0;
    double compile_s = 0.0;
    double host_req_per_s = 0.0;
    double peak_rss_mb = 0.0;
    double roofline_frac = 0.0;
    double speedup_vs_basic = 0.0;
    double speedup_vs_static = 0.0;
    double sim_ttft_p50_ms = 0.0;
    double sim_ttft_p95_ms = 0.0;
    double sim_latency_p99_ms = 0.0;
    double sim_goodput_tok_s = 0.0;
    double sim_slo_attainment = 0.0;
};

/// Per-layer metrics of the traced run. Times are per measured unit
/// (one grid pass, one serve, one set-up round).
struct Layers {
    double graph_build_s = 0.0;
    double graph_ops = 0.0;
    double elk_analysis_s = 0.0;
    double plan_max_plans = 0.0;
    double elk_fit_window = 0.0;
    double elk_schedule_s[5] = {0.0, 0.0, 0.0, 0.0, 0.0};
    double elk_orders_tested = 0.0;
    double runtime_lower_s = 0.0;
    double sim_program_ops = 0.0;
    double sim_engine_s = 0.0;
    double sim_overlap_frac = 0.0;
    double sim_hbm_util = 0.0;
    double sim_noc_util = 0.0;
    double sim_interconnect_stall_ms = 0.0;
    double elk_program_cold_s = 0.0;
    double elk_programs_compiled = 0.0;
    double elk_program_warm_s = 0.0;
    double elk_program_calls = 0.0;
    double runtime_serve_self_s = 0.0;
    double runtime_host_us_per_iteration = 0.0;
    double runtime_iterations = 0.0;
    double runtime_prefill_iterations = 0.0;
    double runtime_decode_iterations = 0.0;
    double runtime_batch_fill = 0.0;
    double runtime_prompt_pad_ratio = 0.0;
    double runtime_queue_depth_mean = 0.0;
    double runtime_queue_depth_peak = 0.0;
    double sim_preloads_skipped = 0.0;
    double runtime_preemptions = 0.0;
    double runtime_deadline_preemptions = 0.0;
    double runtime_prefill_chunks = 0.0;
    double runtime_chunk_decode_interleaves = 0.0;
    double runtime_fairness_windows = 0.0;
    double runtime_route_s = 0.0;
    double runtime_util_skew = 0.0;
    double runtime_replica_iterations_max = 0.0;
    double sim_kv_evictions = 0.0;
    double sim_kv_refetches = 0.0;
    double sim_kv_stall_ms = 0.0;
    double runtime_deferred_admissions = 0.0;
    double runtime_prefix_hit_ratio = 0.0;
    double runtime_kv_migrations = 0.0;
    double runtime_interconnect_bytes = 0.0;
    double runtime_kv_migration_stall_ms = 0.0;
    double trace_overhead_frac = 0.0;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// The metrics in report order, with their BENCHMARK.json names and
/// units.
std::vector<Metric> list_metrics(const EndToEnd& e);
std::vector<Metric> list_metrics(const Layers& l);

/// A labelled text table the run prints before its result line.
struct Table {
    std::string title;
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

/// Everything a workload run produced.
struct Outcome {
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> violations;  ///< every failed check.
    std::vector<std::string> notes;       ///< printed, but no failure.
    EndToEnd e2e;
    Layers layers;
    std::vector<Table> tables;

    /// Records @p n operations, failing them all when @p found is not
    /// empty (each violation is kept, prefixed by @p where).
    void count(int64_t n, const std::vector<std::string>& found,
               const std::string& where);
    /// Records a span-tree violation (the traced run's own check).
    void check_spans(const Tracer& tracer);
};

/// Compares @p digest with @p expected and with the reference digest
/// recorded under @p key; appends each mismatch, and a missing
/// reference, to @p found.
void check_digest(const RunConfig& cfg, const std::string& key,
                  const std::string& digest, const std::string& expected,
                  std::vector<std::string>& found);

/// The workloads: compile_fig17 (compile_workload.cc), and serve_chip
/// or serve_cluster by cfg.workload (serve_workload.cc).
Outcome run_compile_fig17(const RunConfig& cfg);
Outcome run_serve(const RunConfig& cfg);

/// Reference digests (no timing) for `run.py --record`: key -> digest.
std::map<std::string, std::string> record_compile_fig17();
std::map<std::string, std::string> record_serve(
    const std::string& workload, const std::vector<uint64_t>& seeds);

/// The span name of a design's compile() call, and the design's key
/// in metric names ("basic", ..., "ideal").
const char* schedule_span_name(int mode_index);
const char* design_key(int mode_index);

/// Peak resident set of this process in MB.
double peak_rss_mb();

/// FNV-1a hex digest of @p bits.
std::string digest_of(const std::string& bits);

/// Formats @p v with @p digits significant digits (tables).
std::string fmt(double v, int digits = 4);

}  // namespace elkbench

#endif  // ELKBENCH_BENCH_H
