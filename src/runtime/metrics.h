/**
 * @file
 * Reporting helpers shared by benches and examples: design-point
 * bundles, the paper's derived ratios (speedup over a baseline,
 * fraction of the ideal design), and the two fixed-point formatters
 * every table column uses. Keeping the formatting here — rather than
 * ad-hoc printf strings per bench — is what lets the CI determinism
 * diffs compare bench stdout byte-for-byte across runs and `--jobs`
 * settings.
 */
#ifndef ELK_RUNTIME_METRICS_H
#define ELK_RUNTIME_METRICS_H

#include <string>
#include <vector>

#include "runtime/server.h"
#include "sim/trace.h"

namespace elk::runtime {

/// One (design, measured result) pair, e.g. "Elk-Full" on Llama2-13B.
/// The figure benches build a vector of these per sweep cell and
/// derive the comparison columns with speedup()/fraction_of_ideal().
struct DesignPoint {
    std::string design;      ///< design-mode label as printed (§6.1).
    sim::SimResult result;   ///< the simulated run it measured.
};

/// Latency speedup of @p a over @p b (b.total / a.total); > 1 means
/// @p a is faster. Returns 0 when @p a measured no time at all (an
/// empty run), never divides by zero.
double speedup(const sim::SimResult& a, const sim::SimResult& b);

/// Fraction of ideal performance achieved (ideal.total / x.total),
/// in (0, 1] when @p ideal really is the floor; 0 for an empty run.
double fraction_of_ideal(const sim::SimResult& x,
                         const sim::SimResult& ideal);

/// Seconds rendered as milliseconds with exactly three decimals
/// ("1.234"), no unit suffix — the latency/lateness formatter of the
/// elkc, example, and bench tables (incl. the SLO lateness columns).
std::string ms(double seconds);

/// Fraction rendered as a percentage with exactly one decimal and a
/// trailing '%' ("59.4%") — the utilization / token-share /
/// SLO-attainment formatter of the same tables.
std::string pct(double fraction);

/// Completes a per-tenant roll-up whose counts are filled in: sets each
/// entry's token_share (its tokens over all entries' tokens; 0 when no
/// work ran) and attainment (its deadline carriers that met their
/// deadline over its carriers; 1 with none), and returns that
/// attainment over all entries' carriers — the report's
/// slo_attainment. Server and cluster reports both finish here.
double finish_tenant_shares(
    std::vector<ServingReport::TenantShare>& shares);

}  // namespace elk::runtime

#endif  // ELK_RUNTIME_METRICS_H
