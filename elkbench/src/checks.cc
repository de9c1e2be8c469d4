#include "checks.h"

#include <cmath>
#include <cstdint>

namespace elkbench {

namespace rt = elk::runtime;

namespace {

const char* const kDesignNames[5] = {"Basic", "Static", "Elk-Dyn",
                                     "Elk-Full", "Ideal"};

/// Appends "what: got A, want B" to @p out when @p got != @p want.
template <typename T>
void
expect_eq(std::vector<std::string>& out, const std::string& what, T got,
          T want)
{
    if (got != want) {
        out.push_back(what + ": got " + std::to_string(got) + ", want " +
                      std::to_string(want));
    }
}

/// Prompt tokens a prefill-phase request asks prefill to cover.
int64_t
prompt_of(const rt::Request& r, int max_prompt_len)
{
    if (r.phase != rt::Phase::kPrefill) {
        return 0;
    }
    return r.prompt_len > 0 ? r.prompt_len : max_prompt_len;
}

}  // namespace

std::vector<std::string>
check_design_row(const DesignRow& row)
{
    std::vector<std::string> out;
    for (int d = 0; d < 5; ++d) {
        // Ideal is the §6.1 roofline: it gives every operator its
        // full execution space regardless of the SRAM budget
        // (elk/ideal.h), so only the four real designs must fit.
        if (d < 4 && row.memory_exceeded[d]) {
            out.push_back(std::string(kDesignNames[d]) +
                          " plan exceeds on-chip memory");
        }
        if (!(row.latency[d] > 0.0) || !std::isfinite(row.latency[d])) {
            out.push_back(std::string(kDesignNames[d]) +
                          " latency is not a positive number");
        }
    }
    // Each design may be slower than the one before it by at most
    // this factor (integration_test's tolerance band).
    const double tolerance[4] = {1.05, 1.05, 1.02, 1.03};
    for (int d = 1; d < 5; ++d) {
        if (row.latency[d] > row.latency[d - 1] * tolerance[d - 1]) {
            out.push_back(std::string(kDesignNames[d]) + " (" +
                          std::to_string(row.latency[d]) +
                          " s) is slower than " + kDesignNames[d - 1] +
                          " (" + std::to_string(row.latency[d - 1]) +
                          " s) beyond tolerance");
        }
    }
    if (!(row.latency[3] < row.latency[0])) {
        out.push_back("Elk-Full is not faster than Basic");
    }
    return out;
}

std::vector<std::string>
check_serving(const std::vector<rt::Request>& trace,
              const rt::ServerOptions& opts, const rt::ServingReport& rep)
{
    std::vector<std::string> out;
    int64_t decode_sum = 0;
    int64_t prompt_sum = 0;
    int deadline_requests = 0;
    for (const auto& r : trace) {
        decode_sum += r.decode_tokens;
        prompt_sum += prompt_of(r, opts.max_prompt_len);
        deadline_requests += r.deadline_s > 0.0 ? 1 : 0;
    }
    expect_eq(out, "requests", rep.requests, static_cast<int>(trace.size()));
    // A request completes when its last decode token is produced, so
    // a short token count means some request never finished.
    expect_eq(out, "decode tokens", rep.tokens, decode_sum);
    expect_eq(out, "prompt + prefix-hit tokens",
              rep.prompt_tokens + rep.prefix_hit_tokens, prompt_sum);
    if (!trace.empty() && !(rep.makespan > 0.0)) {
        out.push_back("makespan is not positive");
    }
    if (opts.slo) {
        expect_eq(out, "tenant entries", rep.tenant_shares.size(),
                  static_cast<size_t>(opts.tenants));
        int requests = 0;
        int64_t tokens = 0;
        double share_sum = 0.0;
        for (const auto& t : rep.tenant_shares) {
            requests += t.requests;
            tokens += t.tokens;
            share_sum += t.token_share;
        }
        expect_eq(out, "tenant requests", requests, rep.requests);
        expect_eq(out, "tenant tokens", tokens,
                  rep.tokens + rep.prompt_tokens);
        if (std::fabs(share_sum - 1.0) > 1e-9) {
            out.push_back("tenant shares sum to " +
                          std::to_string(share_sum) + ", not 1");
        }
        expect_eq(out, "deadline requests", rep.deadline_requests,
                  deadline_requests);
        if (rep.deadline_misses < 0 ||
            rep.deadline_misses > rep.deadline_requests) {
            out.push_back("deadline misses out of range");
        }
    } else if (!rep.tenant_shares.empty()) {
        out.push_back("tenant roll-up present with SLO scheduling off");
    }
    if (opts.kv_budget > 0) {
        if (rep.mean_kv_bytes > static_cast<double>(rep.kv_bytes_peak) + 1.0) {
            out.push_back("mean KV bytes exceed the KV peak");
        }
    } else {
        expect_eq<uint64_t>(out, "KV peak with KV modelling off",
                            rep.kv_bytes_peak, 0);
        expect_eq<int64_t>(out, "KV evictions with KV modelling off",
                           rep.kv_evictions, 0);
    }
    if (opts.prefill_chunk == 0) {
        expect_eq<int64_t>(out, "prefill chunks with chunking off",
                           rep.prefill_chunks, 0);
        expect_eq<int64_t>(out, "chunk interleaves with chunking off",
                           rep.chunk_decode_interleaves, 0);
    }
    return out;
}

std::vector<std::string>
check_cluster(const std::vector<rt::Request>& trace,
              const rt::ClusterOptions& opts, const std::vector<int>& route,
              const rt::ClusterReport& rep)
{
    std::vector<std::string> out;
    const int n = opts.replicas;
    expect_eq(out, "cluster requests", rep.requests,
              static_cast<int>(trace.size()));
    expect_eq(out, "routed requests", rep.routed, rep.requests);
    expect_eq(out, "route entries", route.size(), trace.size());
    if (static_cast<int>(rep.replica_reports.size()) != n ||
        static_cast<int>(rep.routed_per_replica.size()) != n ||
        route.size() != trace.size()) {
        out.push_back("replica roll-up has the wrong shape");
        return out;
    }
    std::vector<std::vector<rt::Request>> sub(n);
    for (size_t i = 0; i < trace.size(); ++i) {
        if (route[i] < 0 || route[i] >= n) {
            out.push_back("request routed to a replica out of range");
            return out;
        }
        sub[route[i]].push_back(trace[i]);
    }
    int64_t tokens = 0;
    int64_t prompt_cover = 0;
    int64_t decode_sum = 0;
    int64_t prompt_sum = 0;
    for (const auto& r : trace) {
        decode_sum += r.decode_tokens;
        prompt_sum += prompt_of(r, opts.server.max_prompt_len);
    }
    for (int r = 0; r < n; ++r) {
        const rt::ServingReport& rr = rep.replica_reports[r];
        const std::string tag = "replica " + std::to_string(r) + " ";
        expect_eq(out, tag + "routed", rep.routed_per_replica[r],
                  static_cast<int>(sub[r].size()));
        for (const std::string& v : check_serving(sub[r], opts.server, rr)) {
            out.push_back(tag + v);
        }
        tokens += rr.tokens;
        prompt_cover += rr.prompt_tokens + rr.prefix_hit_tokens;
    }
    expect_eq(out, "replica tokens vs cluster total", tokens, rep.tokens);
    expect_eq(out, "cluster tokens vs trace demand", rep.tokens, decode_sum);
    expect_eq(out, "cluster prompt partition", prompt_cover, prompt_sum);
    return out;
}

}  // namespace elkbench
