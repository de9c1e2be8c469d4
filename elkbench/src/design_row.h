/**
 * @file
 * One (graph, topology) row of the Fig. 17 grid: a fresh Compiler,
 * then compile, lowering and one Engine::run for each of the five
 * designs. Used by compile_fig17 for its grid and by the serve
 * workloads for the same comparison at the serving shape.
 */
#ifndef ELKBENCH_DESIGN_ROW_H
#define ELKBENCH_DESIGN_ROW_H

#include <array>
#include <string>

#include "checks.h"
#include "elk/pass.h"
#include "graph/graph.h"
#include "hw/chip_config.h"
#include "sim/trace.h"
#include "tracer.h"

namespace elkbench {

/// Designs in presentation order: Basic, Static, Elk-Dyn, Elk-Full,
/// Ideal (the DesignRow order).
extern const std::array<elk::compiler::Mode, 5> kDesigns;
constexpr int kElkFull = 3;

struct RowResult {
    DesignRow row;  ///< latencies and memory verdicts (the checks' input).
    std::array<std::string, 5> plan_digest;  ///< serialize_bits digests.
    elk::sim::SimResult full;  ///< the Elk-Full simulation.
    int orders_tested = 0;     ///< Elk-Full preload orders evaluated.
    int max_plans = 0;         ///< the paper's P for this graph.
    int fit_window = 0;        ///< the paper's K for this graph.
    int program_ops = 0;       ///< lowered ops over the five designs.
    /// Wall seconds of the Compiler constructor, and of compile +
    /// lowering + Engine::run per design.
    double analysis_s = 0.0;
    std::array<double, 5> design_s{};
};

/// Runs the row; spans go to @p tracer when it is not null.
RowResult run_design_row(const elk::graph::Graph& graph,
                         const elk::hw::ChipConfig& cfg, int max_orders,
                         Tracer* tracer);

}  // namespace elkbench

#endif  // ELKBENCH_DESIGN_ROW_H
