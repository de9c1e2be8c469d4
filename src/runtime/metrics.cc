#include "runtime/metrics.h"

#include <cstdio>

namespace elk::runtime {

double
speedup(const sim::SimResult& a, const sim::SimResult& b)
{
    return a.total_time > 0 ? b.total_time / a.total_time : 0.0;
}

double
fraction_of_ideal(const sim::SimResult& x, const sim::SimResult& ideal)
{
    return x.total_time > 0 ? ideal.total_time / x.total_time : 0.0;
}

std::string
ms(double seconds)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e3);
    return buf;
}

std::string
pct(double fraction)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
    return buf;
}

namespace {

/// Met over carried deadlines; 1 when nothing carried one.
double
attainment(int deadline_requests, int deadline_misses)
{
    return deadline_requests > 0
               ? static_cast<double>(deadline_requests - deadline_misses) /
                     static_cast<double>(deadline_requests)
               : 1.0;
}

}  // namespace

double
finish_tenant_shares(std::vector<ServingReport::TenantShare>& shares)
{
    int64_t total_work = 0;
    int deadline_requests = 0;
    int deadline_misses = 0;
    for (const ServingReport::TenantShare& s : shares) {
        total_work += s.tokens;
        deadline_requests += s.deadline_requests;
        deadline_misses += s.deadline_misses;
    }
    for (ServingReport::TenantShare& s : shares) {
        s.token_share = total_work > 0
                            ? static_cast<double>(s.tokens) /
                                  static_cast<double>(total_work)
                            : 0.0;
        s.attainment = attainment(s.deadline_requests, s.deadline_misses);
    }
    return attainment(deadline_requests, deadline_misses);
}

}  // namespace elk::runtime
