#include "network/route.h"

#include <algorithm>

#include "common/logging.h"

namespace qsurf::network {

namespace {

void
walkX(Path &path, Coord from, int to_x)
{
    int step = to_x > from.x ? 1 : -1;
    while (from.x != to_x) {
        from.x += step;
        path.nodes.push_back(from);
    }
}

void
walkY(Path &path, Coord from, int to_y)
{
    int step = to_y > from.y ? 1 : -1;
    while (from.y != to_y) {
        from.y += step;
        path.nodes.push_back(from);
    }
}

} // namespace

void
dimensionOrderedRoute(const Coord &src, const Coord &dst, bool yx,
                      Path &out)
{
    out.nodes.clear();
    out.nodes.push_back(src);
    if (yx) {
        walkY(out, src, dst.y);
        walkX(out, Coord{src.x, dst.y}, dst.x);
    } else {
        walkX(out, src, dst.x);
        walkY(out, Coord{dst.x, src.y}, dst.y);
    }
}

Path
xyRoute(const Coord &src, const Coord &dst)
{
    Path path;
    dimensionOrderedRoute(src, dst, false, path);
    return path;
}

Path
yxRoute(const Coord &src, const Coord &dst)
{
    Path path;
    dimensionOrderedRoute(src, dst, true, path);
    return path;
}

std::optional<Path>
adaptiveRoute(const Mesh &mesh, const Coord &src, const Coord &dst,
              int owner, BfsScratch &scratch)
{
    fatalIf(!mesh.contains(src) || !mesh.contains(dst),
            "route endpoint outside the mesh");
    scratch.clearWitnesses();
    int s = mesh.nodeResource(src);
    int d = mesh.nodeResource(dst);
    if (!mesh.resourceAvailable(s, owner)) {
        scratch.addWitness(s);
        return std::nullopt;
    }
    if (!mesh.resourceAvailable(d, owner)) {
        scratch.addWitness(d);
        return std::nullopt;
    }
    if (s == d)
        return Path{{src}};

    // BFS over free routers/links.  Expansion order (east, west,
    // south, north — the neighbour tables' order; first-found wins)
    // is part of the deterministic results contract — it must not
    // change.
    scratch.beginSearch(mesh.numNodes());
    std::vector<int32_t> &frontier = scratch.frontier();
    frontier.push_back(s);
    scratch.visit(s, -1);

    bool found = false;
    for (size_t head = 0; head < frontier.size() && !found; ++head) {
        int cur = frontier[head];
        const Mesh::Neighbor *nb = mesh.neighbors(cur);
        for (int k = 0; k < 4; ++k) {
            int next = nb[k].node;
            if (next < 0 || scratch.seen(next))
                continue;
            if (!mesh.resourceAvailable(next, owner)
                || !mesh.resourceAvailable(nb[k].link, owner))
                continue;
            scratch.visit(next, cur);
            if (next == d) {
                found = true;
                break;
            }
            frontier.push_back(next);
        }
    }
    if (!found) {
        // The frontier now lists the whole explored region; every
        // edge leaving it is blocked by its router or its link.
        // Marking a blocked router seen records it once.
        for (int32_t cur : frontier) {
            const Mesh::Neighbor *nb = mesh.neighbors(cur);
            for (int k = 0; k < 4; ++k) {
                int next = nb[k].node;
                if (next < 0 || scratch.seen(next))
                    continue;
                int resource = nb[k].link;
                if (!mesh.resourceAvailable(next, owner)) {
                    resource = next;
                    scratch.visit(next, -1);
                }
                if (!scratch.addWitness(resource))
                    return std::nullopt;
            }
        }
        return std::nullopt;
    }

    Path path;
    for (int c = d; c >= 0; c = scratch.prev(c))
        path.nodes.push_back(fromLinearIndex(c, mesh.width()));
    std::reverse(path.nodes.begin(), path.nodes.end());
    return path;
}

} // namespace qsurf::network
