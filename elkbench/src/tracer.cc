#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace elkbench {

Tracer::Tracer() : epoch_(Clock::now()) {}

int
Tracer::open(const char* name)
{
    Span s;
    s.name = name;
    s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - epoch_)
                     .count();
    s.end_ns = s.start_ns;
    s.parent = open_.empty() ? -1 : open_.back();
    s.run_id = run_id_;
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
Tracer::close(int index)
{
    spans_[index].end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count();
    // Scopes nest, so the span closing is the innermost open one.
    if (!open_.empty() && open_.back() == index) {
        open_.pop_back();
    }
}

namespace {

std::string
json_escape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += c;
    }
    return out;
}

}  // namespace

bool
Tracer::write_chrome_json(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    const std::vector<double> self = self_times_s(spans_);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"span\": %zu, \"parent\": %d, "
                     "\"run_id\": %d, \"self_us\": %.3f}}%s\n",
                     json_escape(s.name).c_str(), s.start_ns / 1e3,
                     (s.end_ns - s.start_ns) / 1e3, i, s.parent, s.run_id,
                     self[i] * 1e6, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

namespace {

std::vector<double>
durations_s(const std::vector<Span>& spans)
{
    std::vector<double> out(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        out[i] = (spans[i].end_ns - spans[i].start_ns) / 1e9;
    }
    return out;
}

/// Direct children of every span, in index order.
std::vector<std::vector<int>>
children_of(const std::vector<Span>& spans)
{
    std::vector<std::vector<int>> kids(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent >= 0) {
            kids[spans[i].parent].push_back(static_cast<int>(i));
        }
    }
    return kids;
}

}  // namespace

std::vector<double>
self_times_s(const std::vector<Span>& spans)
{
    const auto kids = children_of(spans);
    std::vector<double> out(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& p = spans[i];
        // Child intervals clipped to the parent, merged, then summed.
        std::vector<std::pair<int64_t, int64_t>> iv;
        for (int c : kids[i]) {
            int64_t lo = std::max(spans[c].start_ns, p.start_ns);
            int64_t hi = std::min(spans[c].end_ns, p.end_ns);
            if (hi > lo) {
                iv.emplace_back(lo, hi);
            }
        }
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0;
        int64_t cur_lo = 0;
        int64_t cur_hi = -1;
        for (const auto& [lo, hi] : iv) {
            if (cur_hi < lo) {
                if (cur_hi > cur_lo) {
                    covered += cur_hi - cur_lo;
                }
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo) {
            covered += cur_hi - cur_lo;
        }
        out[i] = (p.end_ns - p.start_ns - covered) / 1e9;
    }
    return out;
}

std::string
check_span_trees(const std::vector<Span>& spans)
{
    const auto kids = children_of(spans);
    const std::vector<double> self = self_times_s(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const std::string name = s.name;
        if (s.end_ns < s.start_ns) {
            return "span " + name + " ends before it starts";
        }
        if (s.parent >= static_cast<int>(i)) {
            return "span " + name + " has a later parent";
        }
        if (s.parent >= 0) {
            const Span& p = spans[s.parent];
            if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
                return "span " + name + " is not inside parent " +
                       p.name;
            }
        }
        double child_self = 0.0;
        for (int c : kids[i]) {
            child_self += self[c];
        }
        if (child_self > (s.end_ns - s.start_ns) / 1e9 + 1e-9) {
            return "children of " + name +
                   " have more self time than its duration";
        }
    }
    return "";
}

std::map<std::string, SpanTotals>
totals_by_name(const std::vector<Span>& spans)
{
    const std::vector<double> dur = durations_s(spans);
    const std::vector<double> self = self_times_s(spans);
    std::map<std::string, SpanTotals> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        SpanTotals& t = out[spans[i].name];
        t.total_s += dur[i];
        t.self_s += self[i];
        ++t.count;
    }
    return out;
}

}  // namespace elkbench
