#include "runtime/cluster.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <mutex>
#include <sstream>
#include <utility>

#include "runtime/metrics.h"
#include "util/bits.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace elk::runtime {

using util::append_bits;

std::string
router_policy_name(RouterPolicy policy)
{
    switch (policy) {
        case RouterPolicy::kRoundRobin:
            return "round-robin";
        case RouterPolicy::kLeastLoaded:
            return "least-loaded";
        case RouterPolicy::kSessionAffinity:
            return "session-affinity";
    }
    return "unknown";
}

namespace {

/// splitmix64 finalizer: spreads consecutive prefix ids across the
/// replica range platform-stably (a bare modulo would map ids
/// 0..N-1 to replicas 0..N-1 — no mixing at all).
uint64_t
mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/// Validates the cluster knobs and resolves the interconnect link
/// bandwidth against the machine; returns the finalized options.
ClusterOptions
validated(ClusterOptions o, const sim::Machine& machine)
{
    util::check(o.replicas >= 1,
                "Cluster: replica count must be >= 1");
    util::check(o.router_token_time_s >= 0.0,
                "Cluster: router_token_time_s must be >= 0");
    if (o.router == RouterPolicy::kSessionAffinity) {
        util::check(o.server.prefix_sharing,
                    "Cluster: session-affinity routing keys on shared "
                    "prefix ids — it needs "
                    "ServerOptions::prefix_sharing");
    }
    if (o.migrate_kv) {
        util::check(o.server.kv_budget > 0,
                    "Cluster: KV migration needs KV modeling "
                    "(kv_budget > 0) — migrated segments live in the "
                    "modeled pool");
        util::check(o.server.prefix_sharing,
                    "Cluster: KV migration moves shared prefix "
                    "segments — it needs "
                    "ServerOptions::prefix_sharing");
    }
    util::check(o.prefill_replicas >= 0,
                "Cluster: prefill_replicas must be >= 0");
    if (o.prefill_replicas > 0) {
        util::check(o.replicas >= 2 &&
                        o.prefill_replicas < o.replicas,
                    "Cluster: a prefill tier needs at least one "
                    "decode replica left over (prefill_replicas < "
                    "replicas, replicas >= 2)");
        util::check(o.server.kv_budget > 0,
                    "Cluster: a prefill tier ships KV to the decode "
                    "tier over the interconnect — it needs KV "
                    "modeling (kv_budget > 0)");
    }
    if (o.interconnect.link_bw <= 0.0) {
        o.interconnect.link_bw = machine.config().inter_chip_bw;
    }
    // Fail fast on bad per-replica Server knobs, and keep the
    // finalized bucket ladders so every replica (and route_into's
    // prompt-length resolution) sees one canonical ServerOptions.
    Server probe(machine, o.server);
    o.server = probe.options();
    return o;
}

}  // namespace

Cluster::Cluster(const sim::Machine& machine, ClusterOptions opts)
    : machine_(machine),
      opts_(validated(std::move(opts), machine)),
      fabric_(opts_.interconnect, opts_.replicas)
{
}

std::vector<int>
Cluster::route_into(const std::vector<Request>& requests,
                    std::vector<std::vector<Request>>& sub,
                    std::vector<int>& prefill_counts) const
{
    const int n = opts_.replicas;
    const int p = opts_.prefill_replicas;

    // Tier bounds: with a prefill tier, prompts route in [0, p) and
    // decode work in [p, n); without one, both views alias the whole
    // cluster (one round-robin cursor, so plain round-robin stays
    // "arrival order modulo N" across a mixed-phase trace).
    struct Tier {
        int begin = 0;
        int size = 0;
        int rr = 0;  ///< round-robin cursor (also affinity fallback).
    };
    Tier whole{0, n, 0};
    Tier pre_only{0, p, 0};
    Tier dec_only{p, n - p, 0};
    Tier& pre_tier = p > 0 ? pre_only : whole;
    Tier& dec_tier = p > 0 ? dec_only : whole;

    std::vector<double> free_at(n, 0.0);
    std::vector<int64_t> work(n, 0);
    int max_pid = -1;
    for (const Request& r : requests) {
        max_pid = std::max(max_pid, r.prefix_id);
    }
    // Prefix placement the router tracks: the first replica a prefix
    // carrier was routed to is the prefix's home; has[] marks every
    // replica whose cache will hold the prefix (seeded locally or
    // imported by migration).
    std::vector<int> home(max_pid + 1, -1);
    std::vector<char> has(static_cast<size_t>(max_pid + 1) * n, 0);

    // One routing decision: the policy picks a replica of @p tier for
    // a request arriving at @p arrival carrying @p pid (-1 = none)
    // and an estimated @p est_tokens of service, then books the
    // estimate into the router's load model.
    auto pick = [&](Tier& tier, double arrival, int pid,
                    int64_t est_tokens) {
        int idx = tier.begin;
        switch (opts_.router) {
            case RouterPolicy::kRoundRobin:
                idx = tier.begin + tier.rr;
                tier.rr = (tier.rr + 1) % tier.size;
                break;
            case RouterPolicy::kLeastLoaded:
                if (opts_.router_token_time_s > 0.0) {
                    // Virtual free-at clock: backlog still booked at
                    // this arrival instant; ties go to the lowest
                    // replica id.
                    double best = std::numeric_limits<double>::max();
                    for (int i = tier.begin;
                         i < tier.begin + tier.size; ++i) {
                        const double backlog =
                            std::max(free_at[i] - arrival, 0.0);
                        if (backlog < best) {
                            best = backlog;
                            idx = i;
                        }
                    }
                } else {
                    // Fallback load model: fewest cumulative
                    // assigned tokens.
                    int64_t best = std::numeric_limits<int64_t>::max();
                    for (int i = tier.begin;
                         i < tier.begin + tier.size; ++i) {
                        if (work[i] < best) {
                            best = work[i];
                            idx = i;
                        }
                    }
                }
                break;
            case RouterPolicy::kSessionAffinity:
                if (pid >= 0) {
                    idx = tier.begin +
                          static_cast<int>(
                              mix64(static_cast<uint64_t>(pid)) %
                              static_cast<uint64_t>(tier.size));
                } else {
                    idx = tier.begin + tier.rr;
                    tier.rr = (tier.rr + 1) % tier.size;
                }
                break;
        }
        free_at[idx] = std::max(free_at[idx], arrival) +
                       opts_.router_token_time_s *
                           static_cast<double>(est_tokens);
        work[idx] += est_tokens;
        return idx;
    };

    // Prefix bookkeeping for a prefill-phase request landing on
    // replica @p d: the first carrier anywhere homes the prefix;
    // later carriers landing on a replica without it either re-seed
    // locally (today's semantics) or, with migrate_kv, import the
    // segment from the home chip as a priced interconnect transfer.
    auto tag_prefix = [&](Request& q, int d) {
        const int pid = q.prefix_id;
        if (pid < 0) {
            return;
        }
        char& held = has[static_cast<size_t>(d) * (max_pid + 1) + pid];
        if (home[pid] < 0) {
            home[pid] = d;
            held = 1;
            return;
        }
        if (held) {
            return;
        }
        held = 1;
        if (!opts_.migrate_kv) {
            return;
        }
        const uint64_t bytes = static_cast<uint64_t>(q.prefix_len) *
                               opts_.server.kv_bytes_per_token;
        q.kv_migrate_tokens = q.prefix_len;
        q.kv_migrate_stall =
            fabric_.transfer_seconds(home[pid], d, bytes);
    };

    std::vector<int> primary(requests.size(), 0);
    for (size_t k = 0; k < requests.size(); ++k) {
        const Request& r = requests[k];
        const int64_t len =
            r.prompt_len > 0 ? r.prompt_len : opts_.server.max_prompt_len;
        if (p > 0 && r.phase == Phase::kPrefill &&
            r.decode_tokens > 0) {
            // Tier split: the prompt ingests on a prefill chip, the
            // tokens decode on a decode chip, and the KV crosses the
            // wire between them.
            Request pre_half = r;
            pre_half.decode_tokens = 0;
            pre_half.kv_migrate_tokens = 0;
            pre_half.kv_migrate_stall = 0.0;
            // The deadline rides the decode half only: the request
            // meets its SLO when the last token lands, and counting
            // the prefill half too would double-book one logical
            // deadline. Both halves keep the tenant — prefill work is
            // real work against its fairness share.
            pre_half.deadline_s = 0.0;
            const int pi = pick(pre_tier, r.arrival, r.prefix_id, len);
            tag_prefix(pre_half, pi);
            sub[pi].push_back(pre_half);
            ++prefill_counts[pi];

            Request dec_half = r;
            dec_half.phase = Phase::kDecode;
            dec_half.prefix_id = -1;
            dec_half.prefix_len = 0;
            const int di = pick(dec_tier, r.arrival, -1,
                                r.decode_tokens);
            dec_half.kv_migrate_tokens = static_cast<int>(len);
            dec_half.kv_migrate_stall = fabric_.transfer_seconds(
                pi, di,
                static_cast<uint64_t>(len) *
                    opts_.server.kv_bytes_per_token);
            sub[di].push_back(dec_half);
            primary[k] = di;
            continue;
        }
        Request q = r;
        const bool prefill = r.phase == Phase::kPrefill;
        Tier& tier = prefill ? pre_tier : dec_tier;
        const int64_t est =
            (prefill ? len : 0) + r.decode_tokens;
        const int idx = pick(tier, r.arrival, r.prefix_id, est);
        if (prefill) {
            tag_prefix(q, idx);
            ++prefill_counts[idx];
        }
        sub[idx].push_back(q);
        primary[k] = idx;
    }
    return primary;
}

std::vector<int>
Cluster::route(const std::vector<Request>& requests) const
{
    std::vector<std::vector<Request>> sub(opts_.replicas);
    std::vector<int> prefill_counts(opts_.replicas, 0);
    return route_into(requests, sub, prefill_counts);
}

ClusterReport
Cluster::serve(const std::vector<Request>& requests,
               const Server::PrefillProgramSource& prefill_programs,
               const Server::ProgramSource& decode_programs) const
{
    const int n = opts_.replicas;
    std::vector<std::vector<Request>> sub(n);
    std::vector<int> prefill_counts(n, 0);
    route_into(requests, sub, prefill_counts);

    // Replicas serve in parallel, but the caller's sources are called
    // one at a time: any thread, never concurrently.
    std::mutex source_mu;
    Server::PrefillProgramSource prefill;
    if (prefill_programs) {
        prefill = [&](int batch, int prompt_len) {
            std::lock_guard<std::mutex> lock(source_mu);
            return prefill_programs(batch, prompt_len);
        };
    }
    const Server::ProgramSource decode = [&](int batch) {
        std::lock_guard<std::mutex> lock(source_mu);
        return decode_programs(batch);
    };

    const Server server(machine_, opts_.server);
    ClusterReport rep;
    rep.replicas = n;
    rep.requests = static_cast<int>(requests.size());
    rep.routed_per_replica.reserve(n);
    for (int i = 0; i < n; ++i) {
        rep.routed_per_replica.push_back(
            static_cast<int>(sub[i].size()));
        rep.routed += static_cast<int>(sub[i].size());
    }
    rep.replica_reports.resize(n);
    // min(replicas, hardware threads) runners, the caller among them;
    // a one-worker pool would run inline, so two runners get two.
    const int runners = std::min(n, util::ThreadPool::hardware_jobs());
    util::ThreadPool pool(runners == 2 ? 2 : runners - 1);
    pool.parallel_for(n, [&](int i) {
        rep.replica_reports[i] = server.serve(sub[i], prefill, decode);
    });

    double lat_wsum = 0.0;
    double ttft_wsum = 0.0;
    int ttft_n = 0;
    int64_t min_tokens = std::numeric_limits<int64_t>::max();
    int64_t max_tokens = 0;
    for (int i = 0; i < n; ++i) {
        const ServingReport& r = rep.replica_reports[i];
        rep.tokens += r.tokens;
        rep.makespan = std::max(rep.makespan, r.makespan);
        lat_wsum += r.mean_latency * r.requests;
        rep.max_latency = std::max(rep.max_latency, r.max_latency);
        ttft_wsum += r.mean_ttft * prefill_counts[i];
        ttft_n += prefill_counts[i];
        rep.kv_migrations += r.kv_migrations;
        rep.kv_migrated_tokens += r.kv_migrated_tokens;
        rep.kv_migration_stall += r.kv_migration_stall;
        min_tokens = std::min(min_tokens, r.tokens);
        max_tokens = std::max(max_tokens, r.tokens);
    }
    rep.tokens_per_s =
        rep.makespan > 0
            ? static_cast<double>(rep.tokens) / rep.makespan
            : 0.0;
    rep.mean_latency = rep.routed > 0 ? lat_wsum / rep.routed : 0.0;
    rep.mean_ttft = ttft_n > 0 ? ttft_wsum / ttft_n : 0.0;
    const double mean_tokens =
        static_cast<double>(rep.tokens) / static_cast<double>(n);
    rep.util_skew =
        mean_tokens > 0
            ? static_cast<double>(max_tokens - min_tokens) / mean_tokens
            : 0.0;
    rep.interconnect_bytes =
        rep.kv_migrated_tokens *
        static_cast<int64_t>(opts_.server.kv_bytes_per_token);
    if (opts_.server.slo) {
        rep.slo = true;
        rep.tenant_shares.resize(opts_.server.tenants);
        for (int i = 0; i < n; ++i) {
            const ServingReport& r = rep.replica_reports[i];
            rep.deadline_requests += r.deadline_requests;
            rep.deadline_misses += r.deadline_misses;
            rep.worst_p99_lateness =
                std::max(rep.worst_p99_lateness, r.p99_lateness);
            rep.deadline_preemptions += r.deadline_preemptions;
            for (const ServingReport::TenantShare& s :
                 r.tenant_shares) {
                ServingReport::TenantShare& c =
                    rep.tenant_shares[s.tenant];
                c.tenant = s.tenant;
                c.requests += s.requests;
                c.tokens += s.tokens;
                c.deadline_requests += s.deadline_requests;
                c.deadline_misses += s.deadline_misses;
            }
        }
        rep.slo_attainment = finish_tenant_shares(rep.tenant_shares);
    }
    return rep;
}

std::string
ClusterReport::summary() const
{
    std::ostringstream out;
    out << "cluster: " << replicas << " replicas served " << requests
        << " requests (" << routed << " routed) / " << tokens
        << " tokens, makespan " << ms(makespan) << " ms\n"
        << "  goodput      : " << tokens_per_s
        << " tokens/s, token skew " << util_skew << "\n"
        << "  latency ms   : mean " << ms(mean_latency) << "  max "
        << ms(max_latency) << "  ttft mean " << ms(mean_ttft);
    if (kv_migrations > 0) {
        out << "\n  interconnect : " << kv_migrations
            << " KV migrations / " << kv_migrated_tokens << " tokens / "
            << interconnect_bytes / 1024 << " KB ("
            << ms(kv_migration_stall) << " ms stalled)";
    }
    if (slo) {
        out << "\n  slo          : "
            << (deadline_requests - deadline_misses) << "/"
            << deadline_requests << " deadlines met ("
            << pct(slo_attainment) << " attainment), worst p99 "
            << "lateness " << ms(worst_p99_lateness) << " ms, "
            << deadline_preemptions << " deadline preemptions";
        for (const ServingReport::TenantShare& t : tenant_shares) {
            out << "\n  tenant " << t.tenant << "     : " << t.requests
                << " requests, " << t.tokens << " tokens ("
                << pct(t.token_share) << " share), attainment "
                << pct(t.attainment) << " (" << t.deadline_misses
                << " missed)";
        }
    }
    for (size_t i = 0; i < replica_reports.size(); ++i) {
        const ServingReport& r = replica_reports[i];
        out << "\n  replica " << i << "    : "
            << routed_per_replica[i] << " requests, " << r.tokens
            << " tokens, makespan " << ms(r.makespan) << " ms, p95 "
            << ms(r.p95_latency) << " ms";
    }
    return out.str();
}

std::string
ClusterReport::serialize_bits() const
{
    std::string out;
    append_bits(out, replicas);
    append_bits(out, requests);
    append_bits(out, routed);
    append_bits(out, tokens);
    append_bits(out, makespan);
    append_bits(out, tokens_per_s);
    append_bits(out, mean_latency);
    append_bits(out, max_latency);
    append_bits(out, mean_ttft);
    append_bits(out, util_skew);
    append_bits(out, interconnect_bytes);
    append_bits(out, kv_migrations);
    append_bits(out, kv_migrated_tokens);
    append_bits(out, kv_migration_stall);
    append_bits(out, static_cast<int>(routed_per_replica.size()));
    for (int c : routed_per_replica) {
        append_bits(out, c);
    }
    for (const ServingReport& r : replica_reports) {
        out += r.serialize_bits();
    }
    // The SLO roll-up trails the replica reports, mirroring the
    // trailing-block convention of ServingReport::serialize_bits().
    append_bits(out, static_cast<uint8_t>(slo ? 1 : 0));
    append_bits(out, deadline_requests);
    append_bits(out, deadline_misses);
    append_bits(out, slo_attainment);
    append_bits(out, worst_p99_lateness);
    append_bits(out, deadline_preemptions);
    append_bits(out, static_cast<int>(tenant_shares.size()));
    for (const ServingReport::TenantShare& t : tenant_shares) {
        append_bits(out, t.tenant);
        append_bits(out, t.requests);
        append_bits(out, t.tokens);
        append_bits(out, t.token_share);
        append_bits(out, t.deadline_requests);
        append_bits(out, t.deadline_misses);
        append_bits(out, t.attainment);
    }
    return out;
}

}  // namespace elk::runtime
