#include "stats.h"

#include <algorithm>
#include <cmath>

namespace elkbench {

double
median(std::vector<double> xs)
{
    return percentile(std::move(xs), 50.0);
}

double
geomean(const std::vector<double>& xs)
{
    if (xs.empty()) {
        return 0.0;
    }
    double log_sum = 0.0;
    for (double x : xs) {
        if (!(x > 0.0)) {
            return 0.0;
        }
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty()) {
        return 0.0;
    }
    std::sort(xs.begin(), xs.end());
    const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

WorstReplica
worst_replica(const elk::runtime::ClusterReport& rep)
{
    WorstReplica w;
    for (const auto& r : rep.replica_reports) {
        w.ttft_p50 = std::max(w.ttft_p50, r.p50_ttft);
        w.ttft_p95 = std::max(w.ttft_p95, r.p95_ttft);
        w.latency_p99 = std::max(w.latency_p99, r.p99_latency);
    }
    return w;
}

}  // namespace elkbench
