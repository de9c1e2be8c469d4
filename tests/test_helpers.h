/**
 * @file
 * Shared fixtures for compiler-level tests: a small LLM-like graph and
 * the plan context / library plumbing around it.
 */
#ifndef ELK_TESTS_TEST_HELPERS_H
#define ELK_TESTS_TEST_HELPERS_H

#include <cstddef>
#include <memory>

#include "cost/exec_cost.h"
#include "elk/schedule_ir.h"
#include "graph/model_builder.h"
#include "graph/model_config.h"
#include "hw/topology.h"
#include "hw/traffic.h"

namespace elk::testing {

/// Sizes of the trailing ServingReport::serialize_bits() blocks, in
/// serialization order (prefix, SLO, chunk/locality — the fixed suffix
/// the feature-off anchors strip to compare everything in front).
/// prefix block: u8 flag + 4 x 8-byte counters.
constexpr size_t kPrefixBlock = 1 + 4 * 8;
/// SLO block with no tenant entries: u8 flag + tenants, deadline
/// requests and misses + attainment and two lateness doubles +
/// deadline preemptions + int64 fairness windows + entry count.
constexpr size_t kSloBlockEmpty = 1 + 3 * 4 + 3 * 8 + 4 + 8 + 4;
/// One TenantShare entry of the SLO block.
constexpr size_t kTenantEntry = 4 + 4 + 8 + 8 + 4 + 4 + 8;
/// chunk/locality block: prefill_chunk + three int64 counters +
/// kv_locality byte + kv_locality_skips.
constexpr size_t kChunkBlock = 4 + 3 * 8 + 1 + 8;

/// A small but non-trivial LLM config that compiles in milliseconds.
inline graph::ModelConfig
tiny_llm()
{
    graph::ModelConfig cfg;
    cfg.name = "Tiny-LLM";
    cfg.hidden = 512;
    cfg.layers = 4;
    cfg.heads = 8;
    cfg.kv_heads = 8;
    cfg.head_dim = 64;
    cfg.ffn = 1536;
    cfg.vocab = 4096;
    cfg.gated_ffn = true;
    return cfg;
}

/// GQA variant of tiny_llm.
inline graph::ModelConfig
tiny_llm_gqa()
{
    graph::ModelConfig cfg = tiny_llm();
    cfg.name = "Tiny-LLM-GQA";
    cfg.kv_heads = 2;
    return cfg;
}

/// Owns a graph plus the full plan context / library around it.
struct CompilerHarness {
    CompilerHarness(graph::Graph g, hw::ChipConfig chip)
        : graph(std::move(g)), cfg(chip)
    {
        topo = std::make_unique<hw::Topology>(cfg);
        traffic = std::make_unique<hw::TrafficModel>(*topo, cfg);
        ctx.cfg = &cfg;
        ctx.traffic = traffic.get();
        ctx.exec_cost = &cost;
        library = std::make_unique<compiler::PlanLibrary>(graph, ctx);
    }

    /// Default: tiny LLM decode on a scaled-down chip.
    static CompilerHarness
    tiny()
    {
        hw::ChipConfig chip;
        chip.cores_per_chip = 64;
        chip.num_chips = 1;
        chip.sram_per_core = 256ull * 1024;
        chip.transfer_buffer_per_core = 8ull * 1024;
        chip.core_matmul_flops = 50e9;
        chip.core_vector_flops = 5e9;
        chip.inter_core_link_bw = 4e9;
        chip.hbm_total_bw = 200e9;
        chip.hbm_channels_per_chip = 2;
        chip.mesh_width = 8;
        chip.mesh_height = 8;
        return CompilerHarness(
            graph::build_decode_graph(tiny_llm(), /*batch=*/8,
                                      /*seq=*/512),
            chip);
    }

    graph::Graph graph;
    hw::ChipConfig cfg;
    std::unique_ptr<hw::Topology> topo;
    std::unique_ptr<hw::TrafficModel> traffic;
    cost::AnalyticExecCost cost;
    plan::PlanContext ctx;
    std::unique_ptr<compiler::PlanLibrary> library;
};

}  // namespace elk::testing

#endif  // ELK_TESTS_TEST_HELPERS_H
