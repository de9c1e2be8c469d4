#include "elk/serving_compiler.h"

#include <mutex>
#include <shared_mutex>
#include <utility>

#include "graph/model_builder.h"
#include "runtime/executor.h"
#include "util/logging.h"

namespace elk::compiler {

namespace {

/// ceil(log2(v)) for v >= 1: the power-of-two band index of a prompt
/// length, and with it the prefill sub-namespace of that bucket.
int
ceil_log2(int v)
{
    int n = 0;
    while ((1 << n) < v) {
        ++n;
    }
    return n;
}

}  // namespace

ServingCompiler::ServingCompiler(graph::ModelConfig model, int seq,
                                 const hw::ChipConfig& cfg,
                                 CompileOptions opts, PlanCache* cache,
                                 int jobs)
    : ServingCompiler(std::move(model), seq, cfg, std::move(opts),
                      cache, jobs, Options())
{
}

ServingCompiler::ServingCompiler(graph::ModelConfig model, int seq,
                                 const hw::ChipConfig& cfg,
                                 CompileOptions opts, PlanCache* cache,
                                 int jobs, Options serving_opts)
    : model_(std::move(model)),
      seq_(seq),
      opts_(std::move(opts)),
      cache_(cache),
      jobs_(jobs),
      serving_opts_(serving_opts),
      machine_(cfg, opts_.mode == Mode::kIdeal)
{
    util::check(seq_ >= 1, "ServingCompiler: seq must be >= 1");
    util::check(serving_opts_.op_id_offset >= 0,
                "ServingCompiler: op id offset must be >= 0");
}

std::shared_ptr<const sim::SimProgram>
ServingCompiler::program(int batch)
{
    return program(batch, seq_);
}

std::shared_ptr<const sim::SimProgram>
ServingCompiler::program(int batch, int prompt_len)
{
    util::check(batch >= 1, "ServingCompiler: batch must be >= 1");
    util::check(prompt_len >= 1 && prompt_len <= seq_,
                "ServingCompiler: prompt_len must be in [1, seq]");
    util::check(serving_opts_.kind == GraphKind::kPrefill ||
                    prompt_len == seq_,
                "ServingCompiler: decode programs are compiled at the "
                "model sequence length only");
    const std::pair<int, int> key(batch, prompt_len);
    {
        // Warm-grid fast path: the per-iteration lookup shares the
        // lock with every other server thread.
        std::shared_lock<std::shared_mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            return it->second;
        }
    }
    std::unique_lock<std::shared_mutex> lock(mu_);
    // Double-check: another thread may have compiled the bucket
    // between the two locks.
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        return it->second;
    }

    const graph::Graph graph =
        serving_opts_.kind == GraphKind::kPrefill
            ? graph::build_forward_graph(model_, batch, prompt_len)
            : graph::build_decode_graph(model_, batch, seq_);
    // The bucket compilers share machine_'s topology and traffic model.
    Compiler compiler(graph, machine_, jobs_);
    compiler.set_plan_cache(cache_);
    CompileResult compiled = compiler.compile(opts_);
    compile_seconds_ += compiled.compile_seconds;
    sim::SimProgram lowered =
        runtime::lower_to_sim(graph, compiled.plan, compiler.context());
    // Namespacing happens after lowering so the plan cache still keys
    // on the structural graph (the offset never changes the plan).
    // Prefill length buckets get a per-band sub-namespace on top of
    // the family offset (see kPrefillIdOffset).
    int offset = serving_opts_.op_id_offset;
    if (serving_opts_.kind == GraphKind::kPrefill) {
        offset += ceil_log2(prompt_len) * kPrefillIdOffset;
        util::check(graph.size() < kPrefillIdOffset,
                    "ServingCompiler: graph too large for the prefill "
                    "id namespace scheme");
    }
    for (sim::SimOp& op : lowered.ops) {
        op.op_id += offset;
    }
    auto program = std::make_shared<const sim::SimProgram>(std::move(lowered));
    entries_.emplace(key, program);
    return program;
}

double
ServingCompiler::compile_seconds() const
{
    std::shared_lock<std::shared_mutex> lock(mu_);
    return compile_seconds_;
}

}  // namespace elk::compiler
