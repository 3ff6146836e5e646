/**
 * @file
 * Circuit-switched 2-D mesh (Section 6.1).
 *
 * Braids are messages routed on the mesh formed by tile corners:
 * "black defects are messages routed in the mesh, and the tile
 * corners are routers" (Figure 5).  Braids claim every node and link
 * of their route atomically when they open (the n-hops-in-1-cycle
 * property) and release them when they close.  Because defects
 * cannot coexist closely, there are no buffers and no virtual
 * channels: a node or link has at most one owner.
 *
 * The claim/release path is the simulators' innermost loop, so it is
 * allocation-free and index-based: Path keeps short routes in inline
 * storage, every router and link has a resource id and one owner
 * table holds them all, per-router neighbour tables built at
 * construction give each neighbour's router and link id, and
 * tryClaim() walks a route once, validating and recording ids in a
 * single traversal.  Per-coordinate validity checks on the hot
 * entries (tryClaim, release, the resource-id queries) are debug-only
 * assert()s — callers own path validity there; the checked panics
 * remain on the cold claim() entry.
 */

#ifndef QSURF_NETWORK_MESH_H
#define QSURF_NETWORK_MESH_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/geometry.h"
#include "common/small_vector.h"

namespace qsurf::network {

/** A concrete route: the ordered list of routers it passes through. */
struct Path
{
    /** Inline capacity covering typical dimension-ordered routes. */
    using Nodes = SmallVector<Coord, 16>;

    Nodes nodes;

    /** @return number of links (hops). */
    int hops() const { return static_cast<int>(nodes.size()) - 1; }

    bool empty() const { return nodes.empty(); }

    /** @return source router. */
    const Coord &source() const { return nodes.front(); }

    /** @return destination router. */
    const Coord &dest() const { return nodes.back(); }
};

/**
 * The mesh: a width x height grid of routers with unit-capacity
 * links, exclusive circuit-switched ownership, and busy-time
 * accounting.
 */
class Mesh
{
  public:
    /** No-owner sentinel. */
    static constexpr int no_owner = -1;

    /**
     * One neighbour of a router.  Each router has four, in the
     * adaptive search's expansion order: east, west, south, north.
     */
    struct Neighbor
    {
        int32_t node = -1; ///< Router index; -1 off the mesh.
        int32_t link = -1; ///< Link resource id; -1 off the mesh.
    };

    /** Neighbour directions, in expansion order. */
    enum Direction : int
    {
        east = 0,
        west = 1,
        south = 2,
        north = 3,
    };

    /**
     * Permanent-defect sentinel.  A defective node or link carries
     * this owner forever: every availability check, tryClaim() walk
     * and BFS expansion sees it as "held by someone else" (real
     * owner ids are >= 0), release() cannot free it, and reset()
     * re-applies it — so damage needs no branch on any hot path.
     */
    static constexpr int defect_owner = -2;

    Mesh(int width, int height);

    int width() const { return w; }
    int height() const { return h; }

    /** @return total routers. */
    int numNodes() const { return w * h; }

    /** @return total links. */
    int numLinks() const { return num_links; }

    /** @return total resource ids: routers, then links. */
    int numResources() const { return numNodes() + num_links; }

    /** @return true when @p c is a valid router coordinate. */
    bool
    contains(const Coord &c) const
    {
        return c.x >= 0 && c.x < w && c.y >= 0 && c.y < h;
    }

    /** @return the linear index of router @p c; panic()s outside. */
    int nodeIndex(const Coord &c) const;

    /** @return the index of link a-b; panic()s unless adjacent
     *  routers on the mesh. */
    int linkIndex(const Coord &a, const Coord &b) const;

    /** @return owner of router @p c, or no_owner. */
    int nodeOwner(const Coord &c) const;

    /** @return owner of the link a-b (must be adjacent routers). */
    int linkOwner(const Coord &a, const Coord &b) const;

    /**
     * Walk @p path once: validate that every node and link is free
     * (or already owned by @p owner) and, when they all are, claim
     * them using the indices recorded during the walk.  @return true
     * on success; on failure the mesh is unmodified and blocker()
     * names the first resource the walk found held.
     */
    bool tryClaim(const Path &path, int owner);

    /**
     * Resource ids name every node and link in one space: router
     * @p c is its linear index, link a-b is numNodes() plus the link
     * index.  The owner table, the neighbour tables and the failure
     * witnesses (blocker(), BfsScratch) all use them.
     */
    int nodeResource(const Coord &c) const { return nodeIndexFast(c); }

    /** @return the resource id of link a-b (adjacent routers). */
    int
    linkResource(const Coord &a, const Coord &b) const
    {
        return linkResourceFast(nodeIndexFast(a), nodeIndexFast(b));
    }

    /** @return the owner of resource id @p resource. */
    int
    resourceOwner(int resource) const
    {
        return owner_[static_cast<size_t>(resource)];
    }

    /** @return true if resource @p resource is free or owned by
     *  @p owner. */
    bool
    resourceAvailable(int resource, int owner) const
    {
        int cur = resourceOwner(resource);
        return cur == no_owner || cur == owner;
    }

    /**
     * @return the four neighbours of router index @p node, in
     * expansion order (see Direction).
     */
    const Neighbor *
    neighbors(int node) const
    {
        return &neighbors_[static_cast<size_t>(node) * 4];
    }

    /** @return the resource id that failed the last tryClaim(). */
    int blocker() const { return blocker_; }

    /**
     * Claim every node and link of @p path for @p owner.
     * panic()s if any resource is held by someone else — use
     * tryClaim() when failure is expected.
     */
    void claim(const Path &path, int owner);

    /** Release every node and link of @p path owned by @p owner. */
    void release(const Path &path, int owner);

    /**
     * Mark router @p c permanently defective (idempotent).  Apply
     * before simulation starts: the router must not be claimed.
     */
    void disableNode(const Coord &c);

    /** Mark link a-b permanently defective (idempotent, adjacent
     *  routers, must not be claimed). */
    void disableLink(const Coord &a, const Coord &b);

    /** @return true when router @p c is defective. */
    bool
    nodeDefective(const Coord &c) const
    {
        return nodeOwner(c) == defect_owner;
    }

    /** @return true when link a-b is defective. */
    bool
    linkDefective(const Coord &a, const Coord &b) const
    {
        return linkOwner(a, b) == defect_owner;
    }

    /** @return permanently defective routers. */
    int numDefectiveNodes() const { return defective_nodes; }

    /** @return permanently defective links. */
    int
    numDefectiveLinks() const
    {
        return static_cast<int>(defects.size()) - defective_nodes;
    }

    /** Advance time one cycle, accumulating busy-link statistics. */
    void tick() { tick(1); }

    /**
     * Advance time @p n cycles at once.  Ownership is unchanged, so
     * busy-link accounting stays exact: each elided cycle would have
     * accumulated the same busyLinks().  This is what lets the
     * event-driven schedulers fast-forward without drifting the
     * utilization statistics.
     */
    void
    tick(uint64_t n)
    {
        ticks += n;
        busy_link_cycles += static_cast<uint64_t>(busy_links) * n;
    }

    /** @return cycles ticked so far. */
    uint64_t cycles() const { return ticks; }

    /** @return currently claimed links. */
    int busyLinks() const { return busy_links; }

    /**
     * @return the maximum simultaneously claimed links seen so far —
     * the congestion high-water mark mixed-scheme arbitration reacts
     * to (a braid track and a surgery corridor holding links at the
     * same time both count).
     */
    int peakBusyLinks() const { return peak_busy_links; }

    /** @return the fraction of links claimed right now, in [0, 1]. */
    double
    loadNow() const
    {
        return numLinks()
            ? static_cast<double>(busy_links) / numLinks()
            : 0.0;
    }

    /** @return average fraction of links busy per cycle so far. */
    double utilization() const;

    /** Clear ownership and statistics. */
    void reset();

  private:
    /** Hot-path node index: bounds are debug-only assert()s. */
    int
    nodeIndexFast(const Coord &c) const
    {
        assert(contains(c) && "router outside the mesh");
        return linearIndex(c, w);
    }

    /**
     * Hot-path link resource id from the neighbour tables, given the
     * two endpoints' node indices; adjacency is a debug-only
     * assert().
     */
    int
    linkResourceFast(int ia, int ib) const
    {
        int lo = std::min(ia, ib);
        // Index distance 1 is a horizontal hop — except on a 1-wide
        // mesh, where only vertical links exist.
        int dir = std::abs(ib - ia) == 1 && w > 1 ? east : south;
        int r = neighbors(lo)[dir].link;
        assert((std::abs(ib - ia) == 1 || std::abs(ib - ia) == w)
               && "link endpoints not adjacent");
        assert(r >= 0 && "link leaves the mesh");
        return r;
    }

    int w;
    int h;
    int num_links;

    /** Owner of every resource id: routers, then links. */
    std::vector<int> owner_;

    /** Four Neighbor entries per router, in Direction order. */
    std::vector<Neighbor> neighbors_;

    /** tryClaim() scratch: resource ids recorded by the validation
     *  walk, routers and links interleaved. */
    std::vector<int32_t> walk_;

    /** Defective resource ids, re-applied by reset(). */
    std::vector<int32_t> defects;
    int defective_nodes = 0;

    int blocker_ = -1;
    int busy_links = 0;
    int peak_busy_links = 0;
    uint64_t ticks = 0;
    uint64_t busy_link_cycles = 0;
};

} // namespace qsurf::network

#endif // QSURF_NETWORK_MESH_H
