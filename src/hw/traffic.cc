#include "hw/traffic.h"

#include <algorithm>

#include <vector>

#include "util/logging.h"

namespace elk::hw {

namespace {

/**
 * Accumulates per-link loads of a sampled traffic pattern and returns
 * the bottleneck time per unit of pattern volume.
 */
class LoadAccumulator {
  public:
    explicit LoadAccumulator(const Topology& topo)
        : topo_(topo), load_(topo.num_links(), 0.0)
    {
    }

    /// Adds @p bytes routed from @p src to @p dst.
    void
    add(int src, int dst, double bytes)
    {
        topo_.for_each_link(src, dst,
                            [&](int link) { load_[link] += bytes; });
    }

    /// Max over links of load/bandwidth (seconds for the whole pattern).
    double
    bottleneck_time() const
    {
        double worst = 0.0;
        for (int l = 0; l < topo_.num_links(); ++l) {
            double t = load_[l] / topo_.link(l).bw;
            worst = std::max(worst, t);
        }
        return worst;
    }

  private:
    const Topology& topo_;
    std::vector<double> load_;
};

}  // namespace

TrafficModel::TrafficModel(const Topology& topo, const ChipConfig& cfg)
    : num_cores_(topo.num_cores()), latency_(cfg.link_latency_s)
{
    const int cores = topo.num_cores();
    util::check(cores > 0, "TrafficModel: no cores");

    // --- peer-exchange pattern: each core sends 1 byte, uniformly
    // spread over other cores. Deterministic strides keep endpoint
    // loads exact (every stride is a permutation of the cores) while
    // sampling diverse route lengths on meshes.
    {
        LoadAccumulator acc(topo);
        const long max_samples = 200000;
        long strides = std::min<long>(
            cores - 1, std::max<long>(1, max_samples / cores));
        double per_dest = 1.0 / static_cast<double>(strides);
        double total_hops = 0.0;
        long n_samples = 0;
        for (long j = 0; j < strides; ++j) {
            // Spread strides across [1, cores-1].
            long stride = 1 + j * (cores - 1) / strides;
            for (int s = 0; s < cores; ++s) {
                int d = static_cast<int>((s + stride) % cores);
                acc.add(s, d, per_dest);
                total_hops += topo.hops(s, d);
                ++n_samples;
            }
        }
        avg_hops_ = n_samples ? total_hops / n_samples : 1.0;
        double unit_time = acc.bottleneck_time();  // 1 byte per core
        util::check(unit_time > 0, "TrafficModel: zero peer unit time");
        peer_capacity_ = static_cast<double>(cores) / unit_time;
    }

    // --- HBM delivery pattern: each controller streams to its share of
    // the cores (cores assigned round-robin); 1 byte delivered per core.
    {
        LoadAccumulator acc(topo);
        for (int c = 0; c < cores; ++c) {
            acc.add(topo.hbm_node(topo.nearest_hbm(c)), c, 1.0);
        }
        double unit_time = acc.bottleneck_time();
        util::check(unit_time > 0, "TrafficModel: zero hbm unit time");
        hbm_capacity_ = static_cast<double>(cores) / unit_time;
    }
}

}  // namespace elk::hw
