#include "hw/topology.h"

#include <cmath>
#include <cstdlib>

#include "util/logging.h"

namespace elk::hw {

Topology::Topology(const ChipConfig& cfg)
    : kind_(cfg.topology),
      num_cores_(cfg.cores_per_chip),
      num_hbm_(cfg.hbm_channels_per_chip)
{
    if (kind_ == TopologyKind::kMesh2D) {
        width_ = cfg.mesh_width;
        height_ = cfg.mesh_height;
    }

    // Injection + ejection links for every node (cores then HBM).
    injection_base_ = 0;
    ejection_base_ = num_nodes();
    links_.reserve(2 * num_nodes());
    for (int n = 0; n < num_nodes(); ++n) {
        double bw = cfg.inter_core_link_bw;
        if (is_hbm_node(n)) {
            // An HBM controller can inject at its channel's bandwidth.
            bw = cfg.hbm_bw_per_chip() / cfg.hbm_channels_per_chip;
        }
        links_.push_back({n, -1, bw});
    }
    for (int n = 0; n < num_nodes(); ++n) {
        links_.push_back({-1, n, cfg.inter_core_link_bw});
    }

    if (kind_ == TopologyKind::kMesh2D) {
        // Four directed links per grid position, id computed by
        // mesh_link(); out-of-grid edges still get slots for
        // simplicity (they are never routed over). Endpoints are grid
        // slot indices (row-major), which equal core node ids for
        // occupied slots; slots beyond the core count are router-only
        // (a ragged grid's routers exist without cores).
        mesh_base_ = static_cast<int>(links_.size());
        auto slot_at = [&](int x, int y) {
            return x < 0 || x >= width_ || y < 0 || y >= height_
                       ? -1
                       : y * width_ + x;
        };
        for (int y = 0; y < height_; ++y) {
            for (int x = 0; x < width_; ++x) {
                // order: +x, -x, +y, -y
                links_.push_back({slot_at(x, y), slot_at(x + 1, y),
                                  cfg.mesh_link_bw});
                links_.push_back({slot_at(x, y), slot_at(x - 1, y),
                                  cfg.mesh_link_bw});
                links_.push_back({slot_at(x, y), slot_at(x, y + 1),
                                  cfg.mesh_link_bw});
                links_.push_back({slot_at(x, y), slot_at(x, y - 1),
                                  cfg.mesh_link_bw});
            }
        }
        // Attach HBM controllers evenly along the left/right edges,
        // alternating sides (paper §5: controllers on mesh edges).
        hbm_attach_.resize(num_hbm_);
        for (int i = 0; i < num_hbm_; ++i) {
            int side = i % 2;  // 0 = left column, 1 = right column
            int rows = (num_hbm_ + 1) / 2;
            int slot = i / 2;
            int y = height_ * (2 * slot + 1) / (2 * std::max(rows, 1));
            if (y >= height_) {
                y = height_ - 1;
            }
            int x = side == 0 ? 0 : width_ - 1;
            int attach = node_at(x, y);
            // The grid corner may be an empty slot when the grid is
            // larger than the core count; fall back to scanning.
            while (attach < 0 && y > 0) {
                --y;
                attach = node_at(x, y);
            }
            util::check(attach >= 0, "mesh HBM attach not found");
            hbm_attach_[i] = attach;
        }
    }
}

int
Topology::injection_link(int node) const
{
    return injection_base_ + node;
}

int
Topology::ejection_link(int node) const
{
    return ejection_base_ + node;
}

std::pair<int, int>
Topology::mesh_coord(int node) const
{
    if (is_hbm_node(node)) {
        node = hbm_attach_[node - num_cores_];
    }
    return {node % width_, node / width_};
}

int
Topology::node_at(int x, int y) const
{
    if (x < 0 || x >= width_ || y < 0 || y >= height_) {
        return -1;
    }
    int node = y * width_ + x;
    return node < num_cores_ ? node : -1;
}

int
Topology::hbm_attach_node(int i) const
{
    util::check(kind_ == TopologyKind::kMesh2D,
                "hbm_attach_node on non-mesh topology");
    return hbm_attach_[i];
}

int
Topology::hbm_side(int i) const
{
    util::check(kind_ == TopologyKind::kMesh2D,
                "hbm_side on non-mesh topology");
    return i % 2;
}

int
Topology::nearest_hbm(int core) const
{
    if (kind_ == TopologyKind::kAllToAll) {
        return core % num_hbm_;
    }
    auto [x, y] = mesh_coord(core);
    int side = x < width_ / 2 ? 0 : 1;
    // Controllers alternate sides; pick the band of this row among
    // the controllers on our side.
    int per_side = (num_hbm_ + 1 - side) / 2;
    if (per_side == 0) {
        side = 1 - side;
        per_side = (num_hbm_ + 1 - side) / 2;
    }
    int band = std::min(per_side - 1, y * per_side / height_);
    return side + 2 * band;
}

int
Topology::hops(int src, int dst) const
{
    if (kind_ == TopologyKind::kAllToAll) {
        return 1;
    }
    auto [x1, y1] = mesh_coord(src);
    auto [x2, y2] = mesh_coord(dst);
    if (is_hbm_node(src)) {
        x1 = hbm_side(src - num_cores_) == 0 ? 0 : width_ - 1;
        y1 = y2;
    }
    int d = std::abs(x1 - x2) + std::abs(y1 - y2);
    return d > 0 ? d : 1;
}

int
Topology::mesh_link(int x1, int y1, int x2, int y2) const
{
    int dir;
    if (x2 == x1 + 1 && y2 == y1) {
        dir = 0;
    } else if (x2 == x1 - 1 && y2 == y1) {
        dir = 1;
    } else if (x2 == x1 && y2 == y1 + 1) {
        dir = 2;
    } else if (x2 == x1 && y2 == y1 - 1) {
        dir = 3;
    } else {
        util::panic("mesh_link: nodes not adjacent");
    }
    return mesh_base_ + 4 * (y1 * width_ + x1) + dir;
}

std::vector<int>
Topology::route(int src, int dst) const
{
    std::vector<int> path;
    for_each_link(src, dst, [&](int link) { path.push_back(link); });
    return path;
}

}  // namespace elk::hw
