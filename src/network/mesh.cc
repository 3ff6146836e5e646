#include "network/mesh.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"

namespace qsurf::network {

Mesh::Mesh(int width, int height)
    : w(width), h(height)
{
    fatalIf(w < 1 || h < 1, "mesh must be at least 1x1, got ", w, "x",
            h);
    // Horizontal links first ((w-1) per row), then vertical.
    num_links = (w - 1) * h + w * (h - 1);
    owner_.assign(static_cast<size_t>(numResources()), no_owner);

    // Neighbour tables: the hot paths never recompute a neighbour or
    // a link id from coordinates.  Entries hold indices, not
    // pointers, so a copied mesh stays correct.
    int n = numNodes();
    neighbors_.assign(static_cast<size_t>(n) * 4, Neighbor{});
    auto at = [this](int node, Direction d) -> Neighbor & {
        return neighbors_[static_cast<size_t>(node) * 4 + d];
    };
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            int i = y * w + x;
            if (x < w - 1) {
                int link = n + y * (w - 1) + x;
                at(i, east) = {i + 1, link};
                at(i + 1, west) = {i, link};
            }
            if (y < h - 1) {
                int link = n + (w - 1) * h + y * w + x;
                at(i, south) = {i + w, link};
                at(i + w, north) = {i, link};
            }
        }
    }
}

int
Mesh::nodeIndex(const Coord &c) const
{
    panicIf(!contains(c), "router ", c.x, ",", c.y, " outside ", w, "x",
            h, " mesh");
    return linearIndex(c, w);
}

int
Mesh::linkIndex(const Coord &a, const Coord &b) const
{
    panicIf(manhattan(a, b) != 1, "link endpoints not adjacent");
    panicIf(!contains(a) || !contains(b), "link endpoint outside mesh");
    const Coord &lo = a < b ? a : b;
    if (a.y == b.y)
        return lo.y * (w - 1) + lo.x;
    return (w - 1) * h + lo.y * w + lo.x;
}

int
Mesh::nodeOwner(const Coord &c) const
{
    return resourceOwner(nodeIndex(c));
}

int
Mesh::linkOwner(const Coord &a, const Coord &b) const
{
    return resourceOwner(numNodes() + linkIndex(a, b));
}

void
Mesh::disableNode(const Coord &c)
{
    int r = nodeIndex(c);
    auto &slot = owner_[static_cast<size_t>(r)];
    if (slot == defect_owner)
        return;
    panicIf(slot != no_owner,
            "cannot disable claimed router ", c.x, ",", c.y);
    slot = defect_owner;
    defects.push_back(r);
    ++defective_nodes;
}

void
Mesh::disableLink(const Coord &a, const Coord &b)
{
    int r = numNodes() + linkIndex(a, b);
    auto &slot = owner_[static_cast<size_t>(r)];
    if (slot == defect_owner)
        return;
    panicIf(slot != no_owner, "cannot disable a claimed link");
    slot = defect_owner;
    defects.push_back(r);
}

bool
Mesh::tryClaim(const Path &path, int owner)
{
    assert(owner != no_owner && "cannot claim with the no-owner id");

    // Single traversal: validate while recording every resource id
    // the claim will touch, so success never re-derives them.
    walk_.clear();
    int prev = -1;
    for (const Coord &c : path.nodes) {
        int ni = nodeIndexFast(c);
        if (!resourceAvailable(ni, owner)) {
            blocker_ = ni;
            return false;
        }
        if (prev >= 0) {
            int li = linkResourceFast(prev, ni);
            if (!resourceAvailable(li, owner)) {
                blocker_ = li;
                return false;
            }
            walk_.push_back(li);
        }
        walk_.push_back(ni);
        prev = ni;
    }

    int n = numNodes();
    for (int32_t r : walk_) {
        auto &slot = owner_[static_cast<size_t>(r)];
        if (r >= n && slot == no_owner)
            ++busy_links;
        slot = owner;
    }
    peak_busy_links = std::max(peak_busy_links, busy_links);
    return true;
}

void
Mesh::claim(const Path &path, int owner)
{
    panicIf(owner == no_owner, "cannot claim with the no-owner id");
    // Cold entry: keep the checked per-coordinate validation that
    // the hot tryClaim() walk demotes to asserts.
    for (size_t i = 0; i < path.nodes.size(); ++i) {
        nodeIndex(path.nodes[i]);
        if (i + 1 < path.nodes.size())
            linkIndex(path.nodes[i], path.nodes[i + 1]);
    }
    panicIf(!tryClaim(path, owner), "claim on a busy route");
}

void
Mesh::release(const Path &path, int owner)
{
    int prev = -1;
    for (const Coord &c : path.nodes) {
        int ni = nodeIndexFast(c);
        auto &node = owner_[static_cast<size_t>(ni)];
        if (node == owner)
            node = no_owner;
        if (prev >= 0) {
            auto &link =
                owner_[static_cast<size_t>(linkResourceFast(prev, ni))];
            if (link == owner) {
                link = no_owner;
                --busy_links;
            }
        }
        prev = ni;
    }
}

double
Mesh::utilization() const
{
    if (ticks == 0 || numLinks() == 0)
        return 0;
    return static_cast<double>(busy_link_cycles)
        / (static_cast<double>(ticks) * numLinks());
}

void
Mesh::reset()
{
    std::fill(owner_.begin(), owner_.end(), no_owner);
    // Damage is permanent: a reset clears ownership, not physics.
    for (int32_t r : defects)
        owner_[static_cast<size_t>(r)] = defect_owner;
    busy_links = 0;
    peak_busy_links = 0;
    ticks = 0;
    busy_link_cycles = 0;
}

} // namespace qsurf::network
