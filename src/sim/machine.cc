#include "sim/machine.h"

#include <utility>

#include "util/logging.h"

namespace elk::sim {

namespace {
/// Extra fabric resource index used by the Ideal split-fabric mode.
constexpr int kFabricPreloadSplit = 2;
}  // namespace

Machine::Machine(const hw::ChipConfig& cfg, bool ideal_split_fabric)
    : cfg_(cfg), ideal_split_(ideal_split_fabric)
{
    cfg_.validate();
    topo_ = std::make_shared<const hw::Topology>(cfg_);
    traffic_ = std::make_shared<const hw::TrafficModel>(*topo_, cfg_);
    peer_capacity_ =
        traffic_->peer_exchange_capacity() * cfg_.num_chips;
    delivery_capacity_ =
        traffic_->hbm_delivery_capacity() * cfg_.num_chips;
}

Machine::Machine(const hw::ChipConfig& cfg,
                 std::shared_ptr<const hw::Topology> topo,
                 std::shared_ptr<const hw::TrafficModel> traffic,
                 bool ideal_split_fabric)
    : cfg_(cfg),
      topo_(std::move(topo)),
      traffic_(std::move(traffic)),
      ideal_split_(ideal_split_fabric)
{
    cfg_.validate();
    util::check(topo_ != nullptr && traffic_ != nullptr,
                "Machine: shared analysis needs a topology and traffic");
    peer_capacity_ =
        traffic_->peer_exchange_capacity() * cfg_.num_chips;
    delivery_capacity_ =
        traffic_->hbm_delivery_capacity() * cfg_.num_chips;
}

std::vector<double>
Machine::capacities() const
{
    std::vector<double> caps(Resources::kCount, 1.0);
    caps[Resources::kHbmDram] = cfg_.hbm_total_bw;
    caps[Resources::kFabric] = 1.0;  // normalized fabric fraction
    if (ideal_split_) {
        caps.push_back(1.0);  // dedicated preload fabric
    }
    return caps;
}

int
Machine::fabric_resource_for_peer() const
{
    return Resources::kFabric;
}

int
Machine::fabric_resource_for_preload() const
{
    return ideal_split_ ? kFabricPreloadSplit : Resources::kFabric;
}

FlowWeights
Machine::preload_weights(double unique_bytes, double delivery_bytes) const
{
    util::check(unique_bytes > 0, "preload flow without DRAM bytes");
    double rho = delivery_bytes > 0 ? delivery_bytes / unique_bytes : 1.0;
    return {
        {Resources::kHbmDram, 1.0},
        {fabric_resource_for_preload(), rho / delivery_capacity_},
    };
}

FlowWeights
Machine::peer_weights() const
{
    return {{fabric_resource_for_peer(), 1.0 / peer_capacity_}};
}

}  // namespace elk::sim
