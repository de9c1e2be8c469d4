/**
 * @file
 * Machine: binds a ChipConfig to the simulator's resource model.
 *
 * Builds the Topology and TrafficModel once (or shares ones already
 * built for the same config) and exposes the capacity
 * vector plus flow-weight constructors the engine uses. The multi-chip
 * system (paper §5) aggregates identical chips: model parallelism
 * splits every operator across chips, so pattern capacities scale by
 * the chip count while the per-core numbers stay per-chip.
 */
#ifndef ELK_SIM_MACHINE_H
#define ELK_SIM_MACHINE_H

#include <map>
#include <memory>
#include <vector>

#include "hw/chip_config.h"
#include "hw/topology.h"
#include "hw/traffic.h"
#include "sim/network.h"

namespace elk::sim {

/// Resource layout of a machine, optionally with the paper's "Ideal"
/// split fabric (separate interconnects for preload and execution).
class Machine {
  public:
    /// Builds topology + traffic analysis for @p cfg.
    explicit Machine(const hw::ChipConfig& cfg,
                     bool ideal_split_fabric = false);

    /**
     * Shares an analysis already built for @p cfg (the compiler's
     * hardware-analysis products) instead of rebuilding it; the
     * machine is identical to Machine(cfg, ideal_split_fabric).
     */
    Machine(const hw::ChipConfig& cfg,
            std::shared_ptr<const hw::Topology> topo,
            std::shared_ptr<const hw::TrafficModel> traffic,
            bool ideal_split_fabric = false);

    /// Capacity vector for FluidNetwork construction.
    std::vector<double> capacities() const;

    /**
     * Weights of an HBM preload flow whose volume is @p unique_bytes
     * read from DRAM and @p delivery_bytes delivered over the fabric
     * (delivery >= unique when broadcast replication duplicates data).
     */
    FlowWeights preload_weights(double unique_bytes,
                                double delivery_bytes) const;

    /// Weights of an inter-core (peer exchange) flow.
    FlowWeights peer_weights() const;

    /// System-aggregate peer-exchange capacity (bytes/s).
    double peer_capacity() const { return peer_capacity_; }

    /// System-aggregate HBM delivery capacity over the fabric (bytes/s).
    double delivery_capacity() const { return delivery_capacity_; }

    const hw::ChipConfig& config() const { return cfg_; }
    const hw::Topology& topology() const { return *topo_; }
    const hw::TrafficModel& traffic() const { return *traffic_; }

    /// The analysis itself, for sharing with another Machine or a
    /// compiler::Compiler on the same chip.
    const std::shared_ptr<const hw::Topology>& shared_topology() const
    {
        return topo_;
    }
    const std::shared_ptr<const hw::TrafficModel>& shared_traffic() const
    {
        return traffic_;
    }

    /// True when preload and peer traffic use disjoint fabrics (Ideal).
    bool ideal_split_fabric() const { return ideal_split_; }

    /// Resource index carrying inter-core (peer) traffic.
    int fabric_resource_for_peer() const;

    /// Resource index carrying HBM delivery traffic.
    int fabric_resource_for_preload() const;

  private:

    hw::ChipConfig cfg_;
    std::shared_ptr<const hw::Topology> topo_;
    std::shared_ptr<const hw::TrafficModel> traffic_;
    double peer_capacity_ = 0.0;
    double delivery_capacity_ = 0.0;
    bool ideal_split_ = false;
};

}  // namespace elk::sim

#endif  // ELK_SIM_MACHINE_H
