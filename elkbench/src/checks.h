/**
 * @file
 * Output checks the benchmark runs from outside the program. Each
 * returns the list of violations it found (empty = the output holds);
 * the workloads count an operation as failed when a check on it
 * reports anything.
 */
#ifndef ELKBENCH_CHECKS_H
#define ELKBENCH_CHECKS_H

#include <array>
#include <string>
#include <vector>

#include "runtime/cluster.h"
#include "runtime/server.h"

namespace elkbench {

/// Simulated latency and memory verdict of the five designs of one
/// (graph, topology) row, in the order Basic, Static, Elk-Dyn,
/// Elk-Full, Ideal.
struct DesignRow {
    std::array<double, 5> latency{};
    std::array<bool, 5> memory_exceeded{};
};

/**
 * No plan of the four real designs exceeds on-chip memory (Ideal, the
 * roofline, ignores the SRAM budget by construction, as
 * tests/integration_test.cc also allows), and the simulated latencies
 * keep the paper's order Basic >= Static >= Elk-Dyn >= Elk-Full >=
 * Ideal within the tolerances tests/integration_test.cc allows (5%,
 * 5%, 2%, 3%), with Elk-Full strictly faster than Basic.
 */
std::vector<std::string> check_design_row(const DesignRow& row);

/**
 * Conservation identities of one serve of @p trace under @p opts
 * (the ones tests/sched_property_test.cc asserts, recomputed here):
 * every request completes with all its decode tokens, ingested plus
 * prefix-covered prompt tokens equal the trace's prompt tokens, the
 * tenant roll-up partitions requests and work tokens with shares
 * summing to 1, and the KV and chunk counters are zero when their
 * feature is off.
 */
std::vector<std::string> check_serving(
    const std::vector<elk::runtime::Request>& trace,
    const elk::runtime::ServerOptions& opts,
    const elk::runtime::ServingReport& rep);

/**
 * The cluster roll-up of one serve of @p trace: every request routed
 * once and counted on the replica @p route names, replica tokens sum
 * to the cluster total and to the trace's decode demand, the prompt
 * partition holds cluster-wide, and every replica report passes
 * check_serving() on its own sub-trace. Tiered clusters are out of
 * scope (@p opts must have prefill_replicas == 0).
 */
std::vector<std::string> check_cluster(
    const std::vector<elk::runtime::Request>& trace,
    const elk::runtime::ClusterOptions& opts,
    const std::vector<int>& route,
    const elk::runtime::ClusterReport& rep);

}  // namespace elkbench

#endif  // ELKBENCH_CHECKS_H
