/**
 * @file
 * ServingCompiler: the compile side of the serving stack.
 *
 * The Server asks for "the program for bucket (batch, prompt_len)"
 * once per iteration; this facade memoizes the whole chain behind
 * that call — graph construction, Compiler analysis, the
 * (PlanCache-backed) compile, and lowering to the simulator program —
 * per bucket. Returning the same SimProgram object for a repeated
 * bucket is what lets the engine keep weights resident across
 * iterations.
 *
 * A serving compiler builds one graph family: decode steps
 * (GraphKind::kDecode, one token per request against a KV cache of
 * the model sequence length) or prefill (GraphKind::kPrefill, the
 * forward shape that ingests a prompt). Prefill is two-dimensional:
 * each (batch, prompt_len) bucket compiles build_forward_graph at its
 * *bucketed length*, so a short prompt stops paying for a
 * full-sequence forward pass. Disaggregated serving runs one compiler
 * per family over a shared PlanCache, with disjoint op-id namespaces
 * (Options::op_id_offset plus the per-length sub-namespace scheme
 * below) so every family and every prefill length bucket can share
 * one EngineState residency pool without op-id aliasing.
 *
 * Thread-safe: replica sweeps share one instance (and its PlanCache)
 * across worker threads. The per-iteration lookup of an
 * already-compiled bucket — the overwhelmingly common case once the
 * grid is warm — takes a shared (reader) lock only; a miss upgrades
 * to the exclusive lock and double-checks before compiling, so each
 * bucket is still compiled exactly once.
 */
#ifndef ELK_ELK_SERVING_COMPILER_H
#define ELK_ELK_SERVING_COMPILER_H

#include <map>
#include <memory>
#include <shared_mutex>
#include <utility>

#include "elk/compiler.h"
#include "elk/plan_cache.h"
#include "graph/model_config.h"
#include "sim/engine.h"
#include "sim/machine.h"

namespace elk::compiler {

/// Which graph family a ServingCompiler builds per bucket.
enum class GraphKind {
    kDecode,   ///< one-token decode step with a KV cache of seq.
    kPrefill,  ///< forward pass over the (bucketed) prompt length.
};

class ServingCompiler {
  public:
    /// Conventional op-id offset for the prefill family: far above any
    /// real graph's operator count, so prefill and decode programs
    /// never alias in a shared residency pool. Prefill length buckets
    /// are further sub-namespaced per power-of-two band: a program at
    /// prompt length L is offset by
    ///   op_id_offset + ceil(log2(L)) * kPrefillIdOffset,
    /// so every bucket of the default power-of-two ladder owns a
    /// disjoint id range and stays resident independently. (Two
    /// non-power-of-two bucket lengths in one band would share a
    /// namespace; the engine's footprint-verified residency keeps that
    /// correct, merely evicting on a mismatch.)
    static constexpr int kPrefillIdOffset = 1 << 20;

    /// Serving-specific knobs (the CompileOptions cover the search).
    struct Options {
        /// Graph family every bucket of this compiler builds.
        GraphKind kind = GraphKind::kDecode;
        /// Added to every lowered SimOp id (see kPrefillIdOffset).
        int op_id_offset = 0;

        /// The prefill family with its conventional id namespace —
        /// always pair the two, or prefill and decode entries alias
        /// in a shared residency pool.
        static Options prefill()
        {
            Options o;
            o.kind = GraphKind::kPrefill;
            o.op_id_offset = kPrefillIdOffset;
            return o;
        }
    };

    /**
     * @p cache may be nullptr (no cross-instance amortization) and
     * must outlive the serving compiler otherwise. @p seq is the
     * model sequence length: the KV depth of every decode program and
     * the longest prompt a prefill bucket can ingest. @p jobs is the
     * compiler worker-thread knob; plans are bit-identical at any
     * setting.
     */
    ServingCompiler(graph::ModelConfig model, int seq,
                    const hw::ChipConfig& cfg, CompileOptions opts,
                    PlanCache* cache, int jobs = 1);
    /// Same, with explicit serving knobs — Options::prefill() for the
    /// prefill family's conventional id namespace.
    ServingCompiler(graph::ModelConfig model, int seq,
                    const hw::ChipConfig& cfg, CompileOptions opts,
                    PlanCache* cache, int jobs, Options serving_opts);

    /// Compiled program for the (batch, prompt_len) bucket
    /// (memoized). For the prefill family @p batch prompts, each of
    /// @p prompt_len tokens, are ingested together by a forward graph
    /// built at that length; the decode family is one-dimensional and
    /// requires prompt_len == seq (its KV depth).
    std::shared_ptr<const sim::SimProgram> program(int batch,
                                                   int prompt_len);

    /// Compiled program for @p batch at the model sequence length —
    /// the full-length bucket (and the only one decode has).
    std::shared_ptr<const sim::SimProgram> program(int batch);

    /// The machine serving runs on (split fabric for Ideal mode).
    const sim::Machine& machine() const { return machine_; }

    /// Accumulated wall-clock compile seconds across buckets.
    double compile_seconds() const;

    /// Design-mode name of the compiled plans.
    std::string mode() const { return mode_name(opts_.mode); }

    /// The graph family this compiler builds.
    GraphKind kind() const { return serving_opts_.kind; }

    /// The model sequence length buckets are bounded by.
    int seq() const { return seq_; }

  private:
    graph::ModelConfig model_;
    int seq_;
    CompileOptions opts_;
    PlanCache* cache_;
    int jobs_;
    Options serving_opts_;
    sim::Machine machine_;
    mutable std::shared_mutex mu_;
    /// (batch, prompt_len) -> lowered program. The bucket's graph
    /// and Compiler (with its worker threads) are dropped once it is
    /// lowered; a bucket never compiles twice.
    std::map<std::pair<int, int>, std::shared_ptr<const sim::SimProgram>>
        entries_;
    double compile_seconds_ = 0.0;
};

}  // namespace elk::compiler

#endif  // ELK_ELK_SERVING_COMPILER_H
