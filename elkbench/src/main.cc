/**
 * @file
 * elkbench — the repository benchmark's binary (run it through
 * elkbench/run.py, which builds it first).
 *
 *   elkbench --workload W --seed N --seconds S --trace 0|1
 *            --reference FILE [--trace-out FILE]
 *   elkbench --record --workload W --seeds N[,N...]
 *
 * A run prints its tables and checks, then as its last line one JSON
 * object: {"correct", "attempted", "failed", "metrics"}, where metrics
 * are the end-to-end set (--trace 0) or the per-layer set (--trace 1).
 * --record prints "key digest" lines for the reference file instead.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.h"

namespace {

using namespace elkbench;

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "elkbench: %s\nusage: elkbench --workload W --seed N "
                 "--seconds S --trace 0|1 --reference FILE "
                 "[--trace-out FILE]\n       elkbench --record --workload W "
                 "--seeds N[,N...]\n",
                 why.c_str());
    std::exit(2);
}

uint64_t
parse_u64(const std::string& s, const char* flag)
{
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (s.empty() || *end != '\0') {
        usage(std::string(flag) + " needs a whole number, got '" + s + "'");
    }
    return v;
}

std::map<std::string, std::string>
load_reference(const std::string& path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    if (!in) {
        usage("cannot read reference file " + path);
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::istringstream fields(line);
        std::string key;
        std::string digest;
        if (fields >> key >> digest) {
            out[key] = digest;
        }
    }
    return out;
}

void
print_table(const Table& t)
{
    std::vector<size_t> width(t.header.size());
    for (size_t c = 0; c < t.header.size(); ++c) {
        width[c] = t.header[c].size();
        for (const auto& row : t.rows) {
            width[c] = std::max(width[c], row[c].size());
        }
    }
    std::printf("\n== %s ==\n", t.title.c_str());
    auto line = [&](const std::vector<std::string>& cells) {
        for (size_t c = 0; c < cells.size(); ++c) {
            std::printf("  %-*s", static_cast<int>(width[c]), cells[c].c_str());
        }
        std::printf("\n");
    };
    line(t.header);
    for (const auto& row : t.rows) {
        line(row);
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    RunConfig cfg;
    bool record = false;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    bool have_reference = false;
    std::vector<uint64_t> seeds;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(arg + " needs a value");
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            cfg.workload = value();
        } else if (arg == "--seed") {
            cfg.seed = parse_u64(value(), "--seed");
            have_seed = true;
        } else if (arg == "--seconds") {
            cfg.seconds = static_cast<double>(parse_u64(value(), "--seconds"));
            have_seconds = true;
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1") {
                usage("--trace takes 0 or 1");
            }
            cfg.trace = v == "1";
            have_trace = true;
        } else if (arg == "--reference") {
            cfg.reference = load_reference(value());
            have_reference = true;
        } else if (arg == "--trace-out") {
            cfg.trace_path = value();
        } else if (arg == "--record") {
            record = true;
        } else if (arg == "--seeds") {
            std::stringstream list(value());
            std::string item;
            while (std::getline(list, item, ',')) {
                seeds.push_back(parse_u64(item, "--seeds"));
            }
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    const bool serve =
        cfg.workload == "serve_chip" || cfg.workload == "serve_cluster";
    if (!serve && cfg.workload != "compile_fig17") {
        usage("unknown workload '" + cfg.workload +
              "' (compile_fig17, serve_chip, serve_cluster)");
    }

    if (record) {
        const auto digests = serve ? record_serve(cfg.workload, seeds)
                                   : record_compile_fig17();
        for (const auto& [key, digest] : digests) {
            std::printf("%s %s\n", key.c_str(), digest.c_str());
        }
        return 0;
    }
    if (!have_seed || !have_seconds || !have_trace || !have_reference) {
        usage("--seed, --seconds, --trace and --reference are required");
    }
    if (cfg.seconds < 1) {
        usage("--seconds must be at least 1");
    }

    std::printf("elkbench %s: seed %llu, %g s, trace %d\n",
                cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                cfg.trace ? 1 : 0);
    Outcome out = serve ? run_serve(cfg) : run_compile_fig17(cfg);
    for (const Table& t : out.tables) {
        print_table(t);
    }

    const std::vector<Metric> metrics =
        cfg.trace ? list_metrics(out.layers) : list_metrics(out.e2e);
    Table shown{cfg.trace ? "per-layer metrics (traced run)"
                          : "end-to-end metrics",
                {"metric", "value", "unit"},
                {}};
    for (const Metric& m : metrics) {
        shown.rows.push_back({m.name, fmt(m.value, 6), m.unit});
        if (!std::isfinite(m.value)) {
            out.violations.push_back("metric " + m.name + " is not finite");
            ++out.failed;
        }
    }
    print_table(shown);
    out.failed = std::min(out.failed, out.attempted);
    std::printf("\noperations: %lld attempted, %lld failed\n",
                static_cast<long long>(out.attempted),
                static_cast<long long>(out.failed));
    for (const std::string& v : out.violations) {
        std::printf("  FAILED %s\n", v.c_str());
    }
    for (const std::string& n : out.notes) {
        std::printf("  NOTE %s\n", n.c_str());
    }

    const bool correct = out.failed == 0 && out.violations.empty() &&
                         out.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<long long>(out.attempted),
                static_cast<long long>(out.failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
