/**
 * @file
 * Tests of the benchmark's own arithmetic and checkers: span self
 * time and span-tree checks, geomean and percentiles, worst-replica
 * selection, and every output checker rejecting a corrupted report or
 * digest.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "checks.h"
#include "stats.h"
#include "tracer.h"

namespace elkbench {
namespace {

namespace rt = elk::runtime;

Span
span(const char* name, int64_t start, int64_t end, int parent)
{
    Span s;
    s.name = name;
    s.start_ns = start;
    s.end_ns = end;
    s.parent = parent;
    return s;
}

// ---------------------------------------------------------------------------
// Self time and span trees

TEST(SelfTime, SubtractsMergedChildIntervals)
{
    // Parent [0, 1000); children [100, 300) and [200, 500) overlap and
    // merge into [100, 500); [600, 700) is separate: 500 ns covered.
    std::vector<Span> spans = {span("p", 0, 1000, -1),
                               span("a", 100, 300, 0),
                               span("b", 200, 500, 0),
                               span("c", 600, 700, 0)};
    const auto self = self_times_s(spans);
    EXPECT_DOUBLE_EQ(self[0], 500e-9);
    EXPECT_DOUBLE_EQ(self[1], 200e-9);  // leaves keep their duration
    EXPECT_DOUBLE_EQ(self[3], 100e-9);
}

TEST(SelfTime, CountsOnlyDirectChildren)
{
    // The grandchild is inside the child; the parent loses the child's
    // whole interval once, not the grandchild's again.
    std::vector<Span> spans = {span("p", 0, 100, -1), span("c", 10, 60, 0),
                               span("g", 20, 40, 1)};
    const auto self = self_times_s(spans);
    EXPECT_DOUBLE_EQ(self[0], 50e-9);
    EXPECT_DOUBLE_EQ(self[1], 30e-9);
    EXPECT_DOUBLE_EQ(self[2], 20e-9);
    // Self times of a tree sum to the root's duration.
    EXPECT_DOUBLE_EQ(self[0] + self[1] + self[2], 100e-9);
}

TEST(SpanTrees, AcceptsNestedSpans)
{
    std::vector<Span> spans = {span("p", 0, 100, -1), span("c", 10, 60, 0),
                               span("d", 60, 90, 0), span("g", 20, 40, 1)};
    EXPECT_EQ(check_span_trees(spans), "");
}

TEST(SpanTrees, RejectsChildOutsideParent)
{
    std::vector<Span> spans = {span("p", 0, 100, -1), span("c", 50, 150, 0)};
    EXPECT_NE(check_span_trees(spans), "");
}

TEST(SpanTrees, RejectsChildrenWithMoreSelfTimeThanParent)
{
    // Two children each covering the whole parent: their self times
    // sum to twice the parent's duration.
    std::vector<Span> spans = {span("p", 0, 100, -1), span("a", 0, 100, 0),
                               span("b", 0, 100, 0)};
    EXPECT_NE(check_span_trees(spans), "");
}

TEST(SpanTrees, RejectsNegativeDuration)
{
    std::vector<Span> spans = {span("p", 100, 50, -1)};
    EXPECT_NE(check_span_trees(spans), "");
}

TEST(Tracer, RecordsParentsRunIdsAndChromeJson)
{
    Tracer t;
    t.next_run();
    {
        Scope outer(&t, "outer");
        Scope inner(&t, "inner");
    }
    {
        Scope none(nullptr, "ignored");  // a null tracer records nothing
    }
    t.next_run();
    { Scope second(&t, "second"); }
    ASSERT_EQ(t.spans().size(), 3u);
    EXPECT_EQ(t.spans()[0].parent, -1);
    EXPECT_EQ(t.spans()[1].parent, 0);
    EXPECT_EQ(t.spans()[2].parent, -1);
    EXPECT_EQ(t.spans()[0].run_id, 1);
    EXPECT_EQ(t.spans()[2].run_id, 2);
    EXPECT_EQ(check_span_trees(t.spans()), "");
    const auto totals = totals_by_name(t.spans());
    EXPECT_EQ(totals.at("inner").count, 1);

    const std::string path = ::testing::TempDir() + "elkbench_trace.json";
    ASSERT_TRUE(t.write_chrome_json(path));
    std::ifstream in(path);
    std::stringstream body;
    body << in.rdbuf();
    EXPECT_NE(body.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(body.str().find("\"name\": \"inner\", \"ph\": \"X\""),
              std::string::npos);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Statistics

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({1.0, 4.0}), 2.0);
    EXPECT_NEAR(geomean({2.0, 8.0, 4.0}), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({1.0, 0.0}), 0.0);
}

TEST(Stats, MedianAndPercentile)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 95.0), 4.8);
}

TEST(Stats, WorstReplicaTakesEachPercentileFromItsSlowestChip)
{
    rt::ClusterReport rep;
    rep.replica_reports.resize(3);
    rep.replica_reports[0].p50_ttft = 0.010;
    rep.replica_reports[0].p95_ttft = 0.050;
    rep.replica_reports[0].p99_latency = 0.200;
    rep.replica_reports[1].p50_ttft = 0.030;  // slowest median
    rep.replica_reports[1].p95_ttft = 0.040;
    rep.replica_reports[1].p99_latency = 0.100;
    rep.replica_reports[2].p50_ttft = 0.020;
    rep.replica_reports[2].p95_ttft = 0.090;  // slowest tail
    rep.replica_reports[2].p99_latency = 0.300;
    const WorstReplica w = worst_replica(rep);
    EXPECT_DOUBLE_EQ(w.ttft_p50, 0.030);
    EXPECT_DOUBLE_EQ(w.ttft_p95, 0.090);
    EXPECT_DOUBLE_EQ(w.latency_p99, 0.300);
}

// ---------------------------------------------------------------------------
// Design-row checker

DesignRow
good_row()
{
    DesignRow r;
    r.latency = {9.3e-3, 6.8e-3, 5.6e-3, 5.6e-3, 5.1e-3};
    return r;
}

TEST(CheckDesignRow, AcceptsThePaperOrder)
{
    EXPECT_TRUE(check_design_row(good_row()).empty());
    DesignRow r = good_row();
    r.latency[4] = r.latency[3] * 1.02;  // within Ideal's 3% band
    r.memory_exceeded[4] = true;         // the roofline may not fit
    EXPECT_TRUE(check_design_row(r).empty());
}

TEST(CheckDesignRow, RejectsCorruptedRows)
{
    DesignRow r = good_row();
    r.latency[1] = r.latency[0] * 1.10;  // Static 10% slower than Basic
    EXPECT_FALSE(check_design_row(r).empty());

    r = good_row();
    r.latency[3] = r.latency[2] * 1.05;  // Elk-Full beyond its 2% band
    EXPECT_FALSE(check_design_row(r).empty());

    r = good_row();
    r.memory_exceeded[3] = true;
    EXPECT_FALSE(check_design_row(r).empty());

    r = good_row();
    r.latency[2] = 0.0;
    EXPECT_FALSE(check_design_row(r).empty());
}

// ---------------------------------------------------------------------------
// Serving and cluster checkers

struct ServeCase {
    std::vector<rt::Request> trace;
    rt::ServerOptions opts;
    rt::ServingReport rep;
};

/// A three-request SLO trace with a report that satisfies every
/// identity.
ServeCase
good_serve()
{
    ServeCase c;
    c.opts.max_prompt_len = 64;
    c.opts.slo = true;
    c.opts.tenants = 2;
    const int prompts[3] = {10, 20, 0};  // 0 = full length (64)
    const int tokens[3] = {2, 3, 1};
    for (int i = 0; i < 3; ++i) {
        rt::Request r;
        r.arrival = 0.001 * i;
        r.phase = rt::Phase::kPrefill;
        r.prompt_len = prompts[i];
        r.decode_tokens = tokens[i];
        r.tenant = i % 2;
        r.deadline_s = r.arrival + 0.5;
        c.trace.push_back(r);
    }
    rt::ServingReport& rep = c.rep;
    rep.requests = 3;
    rep.tokens = 6;
    rep.prompt_tokens = 94;
    rep.makespan = 0.01;
    rep.slo = true;
    rep.tenants = 2;
    rep.deadline_requests = 3;
    rep.deadline_misses = 1;
    rep.tenant_shares.resize(2);
    rep.tenant_shares[0] = {0, 2, 78, 0.78, 2, 1, 0.5};
    rep.tenant_shares[1] = {1, 1, 22, 0.22, 1, 0, 1.0};
    return c;
}

TEST(CheckServing, AcceptsAConsistentReport)
{
    ServeCase c = good_serve();
    EXPECT_TRUE(check_serving(c.trace, c.opts, c.rep).empty());
}

TEST(CheckServing, RejectsEachCorruption)
{
    auto rejects = [](void (*corrupt)(ServeCase&)) {
        ServeCase c = good_serve();
        corrupt(c);
        return !check_serving(c.trace, c.opts, c.rep).empty();
    };
    // A request that never finished leaves tokens short.
    EXPECT_TRUE(rejects([](ServeCase& c) { c.rep.tokens -= 1; }));
    EXPECT_TRUE(rejects([](ServeCase& c) { c.rep.requests -= 1; }));
    // Prompt tokens must partition into ingested + prefix-covered.
    EXPECT_TRUE(rejects([](ServeCase& c) { c.rep.prompt_tokens += 1; }));
    EXPECT_TRUE(rejects([](ServeCase& c) { c.rep.prefix_hit_tokens = 5; }));
    // Tenant roll-up.
    EXPECT_TRUE(rejects(
        [](ServeCase& c) { c.rep.tenant_shares[1].token_share = 0.2; }));
    EXPECT_TRUE(
        rejects([](ServeCase& c) { c.rep.tenant_shares[0].requests = 1; }));
    EXPECT_TRUE(
        rejects([](ServeCase& c) { c.rep.tenant_shares[0].tokens += 1; }));
    EXPECT_TRUE(rejects([](ServeCase& c) { c.rep.tenant_shares.pop_back(); }));
    EXPECT_TRUE(rejects([](ServeCase& c) { c.rep.deadline_requests = 2; }));
    EXPECT_TRUE(rejects([](ServeCase& c) { c.rep.deadline_misses = 4; }));
    // Feature-off counters stay zero.
    EXPECT_TRUE(rejects([](ServeCase& c) { c.rep.kv_evictions = 1; }));
    EXPECT_TRUE(rejects([](ServeCase& c) { c.rep.prefill_chunks = 3; }));
    EXPECT_TRUE(rejects([](ServeCase& c) { c.rep.makespan = 0.0; }));
}

struct ClusterCase {
    std::vector<rt::Request> trace;
    rt::ClusterOptions opts;
    std::vector<int> route;
    rt::ClusterReport rep;
};

/// Four requests round-robin over two replicas, SLO off.
ClusterCase
good_cluster()
{
    ClusterCase c;
    c.opts.replicas = 2;
    c.opts.server.max_prompt_len = 64;
    const int prompts[4] = {10, 20, 30, 40};
    for (int i = 0; i < 4; ++i) {
        rt::Request r;
        r.arrival = 0.001 * i;
        r.prompt_len = prompts[i];
        r.decode_tokens = 2;
        c.trace.push_back(r);
        c.route.push_back(i % 2);
    }
    rt::ClusterReport& rep = c.rep;
    rep.replicas = 2;
    rep.requests = 4;
    rep.routed = 4;
    rep.tokens = 8;
    rep.routed_per_replica = {2, 2};
    rep.replica_reports.resize(2);
    for (int r = 0; r < 2; ++r) {
        rt::ServingReport& rr = rep.replica_reports[r];
        rr.requests = 2;
        rr.tokens = 4;
        rr.makespan = 0.01;
    }
    rep.replica_reports[0].prompt_tokens = 30;  // 10 + 30
    rep.replica_reports[0].prefix_hit_tokens = 10;
    rep.replica_reports[1].prompt_tokens = 60;  // 20 + 40
    return c;
}

TEST(CheckCluster, AcceptsAConsistentReport)
{
    ClusterCase c = good_cluster();
    EXPECT_TRUE(check_cluster(c.trace, c.opts, c.route, c.rep).empty());
}

TEST(CheckCluster, RejectsEachCorruption)
{
    auto rejects = [](void (*corrupt)(ClusterCase&)) {
        ClusterCase c = good_cluster();
        corrupt(c);
        return !check_cluster(c.trace, c.opts, c.route, c.rep).empty();
    };
    // Replica tokens must sum to the cluster total.
    EXPECT_TRUE(rejects([](ClusterCase& c) { c.rep.tokens = 9; }));
    EXPECT_TRUE(
        rejects([](ClusterCase& c) { c.rep.replica_reports[1].tokens = 3; }));
    EXPECT_TRUE(
        rejects([](ClusterCase& c) { c.rep.routed_per_replica = {3, 1}; }));
    EXPECT_TRUE(rejects([](ClusterCase& c) { c.route[0] = 1; }));
    EXPECT_TRUE(rejects([](ClusterCase& c) { c.route[0] = 7; }));
    EXPECT_TRUE(rejects([](ClusterCase& c) { c.rep.routed = 3; }));
    EXPECT_TRUE(
        rejects([](ClusterCase& c) { c.rep.replica_reports.pop_back(); }));
    EXPECT_TRUE(rejects(
        [](ClusterCase& c) { c.rep.replica_reports[0].prompt_tokens = 31; }));
}

// ---------------------------------------------------------------------------
// Digests

TEST(CheckDigest, AcceptsTheRecordedDigest)
{
    RunConfig cfg;
    cfg.reference = {{"w/plans", "00ff"}};
    std::vector<std::string> found;
    check_digest(cfg, "w/plans", "00ff", "00ff", found);
    EXPECT_TRUE(found.empty());
}

TEST(CheckDigest, RejectsEachCorruption)
{
    RunConfig cfg;
    cfg.reference = {{"w/plans", "00ff"}};
    auto rejects = [&](const char* key, const char* digest,
                       const char* first) {
        std::vector<std::string> found;
        check_digest(cfg, key, digest, first, found);
        return !found.empty();
    };
    // A wrong reference, a repeat that differs from the first run, and
    // a key nothing was recorded for.
    EXPECT_TRUE(rejects("w/plans", "00fe", "00fe"));
    EXPECT_TRUE(rejects("w/plans", "00ff", "00fe"));
    EXPECT_TRUE(rejects("w/other", "00ff", "00ff"));
}

}  // namespace
}  // namespace elkbench
