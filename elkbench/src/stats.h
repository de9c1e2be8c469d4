/**
 * @file
 * The benchmark's own statistics, kept apart from the program's
 * util::stats so a bug there cannot hide in the figures that check it.
 */
#ifndef ELKBENCH_STATS_H
#define ELKBENCH_STATS_H

#include <vector>

#include "runtime/cluster.h"

namespace elkbench {

/// Median (mean of the two middle values for an even count); 0 when
/// @p xs is empty.
double median(std::vector<double> xs);

/// Geometric mean of positive values; 0 when @p xs is empty or holds
/// a value <= 0.
double geomean(const std::vector<double>& xs);

/// p-th percentile (0..100), linear interpolation between closest
/// ranks; 0 when @p xs is empty.
double percentile(std::vector<double> xs, double p);

/// Serving percentiles a cluster run is judged by. ClusterReport
/// carries no merged percentiles, and the slowest chip sets the SLO,
/// so each is the worst (largest) value over the replicas.
struct WorstReplica {
    double ttft_p50 = 0.0;
    double ttft_p95 = 0.0;
    double latency_p99 = 0.0;
};
WorstReplica worst_replica(const elk::runtime::ClusterReport& rep);

}  // namespace elkbench

#endif  // ELKBENCH_STATS_H
