/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one call from the benchmark into a layer of the program:
 * its name, start and end on the steady clock, the span that was open
 * when it began (its parent), and the run id of the measured unit it
 * belongs to (one grid pass, one serve). Spans stay in memory until
 * the benchmark ends and writes them out as Chrome trace-event JSON,
 * which Perfetto and chrome://tracing load.
 *
 * Recording is single-threaded (the benchmark runs the compiler with
 * one job). A Scope on a null Tracer records nothing, so the untraced
 * runs pay one branch per call site.
 */
#ifndef ELKBENCH_TRACER_H
#define ELKBENCH_TRACER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace elkbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since @p t0.
inline double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
    const char* name = "";  ///< a string with static storage.
    int64_t start_ns = 0;  ///< relative to the tracer's epoch.
    int64_t end_ns = 0;
    int parent = -1;       ///< index into Tracer::spans(), -1 = root.
    int run_id = 0;
};

class Tracer {
  public:
    Tracer();

    /// Opens a span under the innermost open span; returns its index.
    /// @p name must have static storage (a literal or a constant).
    int open(const char* name);
    /// Closes span @p index, which must be the innermost open span.
    void close(int index);

    /// Starts a new measured unit; later spans carry its id.
    void next_run() { ++run_id_; }

    const std::vector<Span>& spans() const { return spans_; }

    /// Writes every span as Chrome trace-event JSON ("X" events in
    /// microseconds, with parent, run id and self time as args).
    /// Returns false when the file cannot be written.
    bool write_chrome_json(const std::string& path) const;

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    int run_id_ = 0;
};

/// RAII span: records nothing when @p tracer is null.
class Scope {
  public:
    Scope(Tracer* tracer, const char* name)
        : tracer_(tracer), index_(tracer ? tracer->open(name) : -1)
    {
    }
    ~Scope()
    {
        if (tracer_ != nullptr) {
            tracer_->close(index_);
        }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer* tracer_;
    int index_;
};

/**
 * Self time of every span in seconds: its duration minus the part of
 * its interval that its direct children cover (overlapping children
 * are merged, so a covered instant is subtracted once).
 */
std::vector<double> self_times_s(const std::vector<Span>& spans);

/**
 * Checks every span tree: each span ends after it starts, each child
 * lies inside its parent, and the children's self times sum to no
 * more than the parent's duration. Returns an empty string when the
 * trees are sound, otherwise a description of the first violation.
 */
std::string check_span_trees(const std::vector<Span>& spans);

/// Per-name totals of duration and self time, in seconds.
struct SpanTotals {
    double total_s = 0.0;
    double self_s = 0.0;
    int64_t count = 0;
};
std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans);

}  // namespace elkbench

#endif  // ELKBENCH_TRACER_H
