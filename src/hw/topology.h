/**
 * @file
 * Interconnect topology of one ICCA chip: node numbering, mesh
 * coordinates, dimension-order routing, and link enumeration.
 *
 * Nodes 0..C-1 are cores; nodes C..C+H-1 are HBM controllers attached
 * to the interconnect (paper §2.1: controllers send data to cores the
 * same way cores send data to each other).
 *
 * Links are directed capacity resources identified by dense ids:
 *  - every node owns one injection link (node -> fabric) and one
 *    ejection link (fabric -> node);
 *  - a 2D mesh additionally owns four directed neighbor links per
 *    grid hop.
 * A route is the ordered list of link ids a transfer occupies.
 */
#ifndef ELK_HW_TOPOLOGY_H
#define ELK_HW_TOPOLOGY_H

#include <utility>
#include <vector>

#include "hw/chip_config.h"

namespace elk::hw {

/// Directed link descriptor (for inspection and debugging).
struct LinkInfo {
    /// Source: node id (injection/ejection block) or row-major grid
    /// slot (mesh block; equals the core id for occupied slots,
    /// router-only for slots beyond the core count); -1 = fabric side.
    int src;
    /// Destination, same conventions; -1 = fabric side / off-grid.
    int dst;
    double bw;    ///< bandwidth in bytes/s.
};

/**
 * Per-chip interconnect topology with routing.
 *
 * All chips in a system are identical, so a single Topology instance
 * describes any chip.
 */
class Topology {
  public:
    /// Builds the topology for one chip of @p cfg.
    explicit Topology(const ChipConfig& cfg);

    /// Number of core nodes.
    int num_cores() const { return num_cores_; }

    /// Number of HBM controller nodes.
    int num_hbm_nodes() const { return num_hbm_; }

    /// Total nodes (cores + HBM controllers).
    int num_nodes() const { return num_cores_ + num_hbm_; }

    /// Node id of HBM controller @p i.
    int hbm_node(int i) const { return num_cores_ + i; }

    /// True if @p node is an HBM controller.
    bool is_hbm_node(int node) const { return node >= num_cores_; }

    /// Number of directed links.
    int num_links() const { return static_cast<int>(links_.size()); }

    /// Descriptor of link @p id.
    const LinkInfo& link(int id) const { return links_[id]; }

    /// Injection link id of @p node.
    int injection_link(int node) const;

    /// Ejection link id of @p node.
    int ejection_link(int node) const;

    /**
     * Grid coordinate of a node. Cores fill the grid row-major; each
     * HBM controller sits just outside the grid next to its attach
     * point. Only meaningful for mesh topologies.
     */
    std::pair<int, int> mesh_coord(int node) const;

    /// Grid node at (x, y); -1 when the slot holds no core.
    int node_at(int x, int y) const;

    /// Grid side (0 = left edge, 1 = right edge) an HBM controller's
    /// edge PHY occupies (mesh only). Controllers inject into the edge
    /// router of the destination row, modelling the edge-distributed
    /// memory PHYs of real mesh-based ICCA chips.
    int hbm_side(int i) const;

    /// Mesh edge node an HBM controller is nominally attached to
    /// (its coordinate anchor; delivery enters at the target row).
    int hbm_attach_node(int i) const;

    /// The controller whose edge PHY is closest to @p core (mesh);
    /// round-robin on all-to-all fabrics.
    int nearest_hbm(int core) const;

    /**
     * Hop count of the route between two nodes: 1 for all-to-all, the
     * Manhattan router distance for a mesh (minimum 1).
     */
    int hops(int src, int dst) const;

    /**
     * Dimension-order (X-then-Y) route from @p src to @p dst as an
     * ordered list of link ids, including the injection and ejection
     * links. All-to-all routes are {inj(src), ej(dst)}.
     */
    std::vector<int> route(int src, int dst) const;

    /**
     * Calls @p fn(link_id) for every link of route(src, dst), in the
     * same order, without building the vector — the form for hot
     * per-route loops such as TrafficModel's load sampling.
     */
    template <typename Fn>
    void for_each_link(int src, int dst, Fn&& fn) const;

    /// Topology kind this instance models.
    TopologyKind kind() const { return kind_; }

    /// Mesh width (1 for all-to-all).
    int width() const { return width_; }

    /// Mesh height (1 for all-to-all).
    int height() const { return height_; }

  private:
    /// Directed mesh link id from grid node (x1,y1) to adjacent (x2,y2).
    int mesh_link(int x1, int y1, int x2, int y2) const;

    TopologyKind kind_;
    int num_cores_;
    int num_hbm_;
    int width_ = 1;
    int height_ = 1;
    std::vector<LinkInfo> links_;
    /// First id of the per-node injection links block.
    int injection_base_ = 0;
    /// First id of the per-node ejection links block.
    int ejection_base_ = 0;
    /// First id of the mesh neighbor links block (mesh only).
    int mesh_base_ = 0;
    /// Attach node (core id) of each HBM controller.
    std::vector<int> hbm_attach_;
};

template <typename Fn>
void
Topology::for_each_link(int src, int dst, Fn&& fn) const
{
    fn(injection_link(src));
    if (kind_ == TopologyKind::kMesh2D) {
        auto [x, y] = mesh_coord(src);
        auto [dx, dy] = mesh_coord(dst);
        if (is_hbm_node(src)) {
            // Edge-distributed PHY: the controller enters the grid at
            // its edge column in the destination's row.
            x = hbm_side(src - num_cores_) == 0 ? 0 : width_ - 1;
            y = dy;
        }
        // Dimension-order routing: walk X first, then Y (paper §5).
        while (x != dx) {
            int nx = x + (dx > x ? 1 : -1);
            fn(mesh_link(x, y, nx, y));
            x = nx;
        }
        while (y != dy) {
            int ny = y + (dy > y ? 1 : -1);
            fn(mesh_link(x, y, x, ny));
            y = ny;
        }
    }
    fn(ejection_link(dst));
}

}  // namespace elk::hw

#endif  // ELK_HW_TOPOLOGY_H
