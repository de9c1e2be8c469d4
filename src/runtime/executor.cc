#include "runtime/executor.h"

#include <algorithm>

#include "cost/exec_cost.h"
#include "util/logging.h"

namespace elk::runtime {

sim::SimProgram
lower_to_sim(const graph::Graph& graph, const compiler::ExecutionPlan& plan,
             const plan::PlanContext& ctx)
{
    const hw::ChipConfig& cfg = *ctx.cfg;
    util::check(!plan.ops.empty(),
                "lower_to_sim: empty ExecutionPlan");
    util::check(static_cast<int>(plan.ops.size()) <= graph.size(),
                "lower_to_sim: plan schedules more operators than the "
                "graph has");
    sim::SimProgram program;
    program.ops.reserve(plan.ops.size());

    for (const auto& sched : plan.ops) {
        const graph::Operator& op = graph.op(sched.op_id);
        const plan::ExecPlan& exec = sched.exec;
        const plan::PreloadPlan& pre = sched.preload;
        const double cores = static_cast<double>(exec.cores_used());

        sim::SimOp sop;
        sop.op_id = op.id;
        sop.name = op.name;
        sop.flops = op.flops;

        // --- preload ---
        // Chunked streamed operands load only their resident fraction
        // at preload time; the rest streams from HBM during execution.
        sop.dram_bytes =
            static_cast<double>(op.hbm_bytes()) * pre.dram_fraction;
        sop.exec_stream_dram = static_cast<double>(op.hbm_bytes()) *
                               (1.0 - pre.dram_fraction);
        if (sop.dram_bytes > 0) {
            // Delivered bytes include broadcast replication; never
            // less than the unique volume actually moved on-chip.
            sop.delivery_bytes =
                std::max(pre.noc_delivery_bytes, sop.dram_bytes);
        }
        sop.preload_space = pre.preload_space;

        // --- distribution phase ---
        sop.distribute_bytes = pre.distribute_bytes * cores;
        sop.distribute_local_time =
            pre.distribute_bytes / cfg.sram_read_bw;

        // --- execution phase ---
        // Local time covers compute, the SRAM stall of serving peer
        // fetches, and the inter-chip reduction; the fetch/reduction
        // volumes themselves travel as a fabric flow so contention
        // with concurrent preload delivery emerges in the simulator.
        double serve_stall = exec.fetch_bytes / cfg.sram_read_bw;
        double inter_chip =
            cfg.num_chips > 1 && graph::uses_matmul_pipeline(op.kind)
                ? static_cast<double>(op.act_out_bytes) / cfg.inter_chip_bw
                : 0.0;
        sop.exec_local_time =
            exec.compute_time + serve_stall + inter_chip;
        sop.fetch_bytes = (exec.fetch_bytes + exec.reduce_bytes) * cores;
        sop.exec_space = exec.exec_space;

        program.ops.push_back(std::move(sop));
    }

    program.preload_order = plan.preload_order;
    program.issue_slot = plan.issue_slot;
    if (program.preload_order.empty()) {
        program.finalize_default_order();
    }
    program.validate();
    return program;
}

sim::SimResult
run_plan(const sim::Machine& machine, const graph::Graph& graph,
         const compiler::ExecutionPlan& plan, const plan::PlanContext& ctx)
{
    sim::Engine engine(machine);
    return engine.run(lower_to_sim(graph, plan, ctx));
}

}  // namespace elk::runtime
