#include "network/route.h"

#include <algorithm>
#include <array>

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

Path
xyRoute(const Coord &src, const Coord &dst)
{
    Path path;
    path.nodes.push_back(src);
    walkX(path, src, dst.x);
    walkY(path, Coord{dst.x, src.y}, dst.y);
    return path;
}

Path
yxRoute(const Coord &src, const Coord &dst)
{
    Path path;
    path.nodes.push_back(src);
    walkY(path, src, dst.y);
    walkX(path, Coord{src.x, dst.y}, dst.x);
    return path;
}

std::optional<Path>
adaptiveRoute(const Mesh &mesh, const Coord &src, const Coord &dst,
              int owner, BfsScratch &scratch)
{
    fatalIf(!mesh.contains(src) || !mesh.contains(dst),
            "route endpoint outside the mesh");
    scratch.clearWitnesses();
    if (!mesh.nodeAvailable(src, owner)) {
        scratch.addWitness(mesh.nodeResource(src));
        return std::nullopt;
    }
    if (!mesh.nodeAvailable(dst, owner)) {
        scratch.addWitness(mesh.nodeResource(dst));
        return std::nullopt;
    }
    if (src == dst)
        return Path{{src}};

    // BFS over free routers/links.  Expansion order (east, west,
    // south, north; first-found wins) is part of the deterministic
    // results contract — it must not change.
    int width = mesh.width();
    auto idx = [width](const Coord &c) {
        return linearIndex(c, width);
    };

    scratch.beginSearch(mesh.numNodes());
    std::vector<int32_t> &frontier = scratch.frontier();
    frontier.push_back(idx(src));
    scratch.visit(idx(src), -1);

    static constexpr std::array<Coord, 4> dirs{
        {{1, 0}, {-1, 0}, {0, 1}, {0, -1}}};
    bool found = false;
    for (size_t head = 0; head < frontier.size() && !found; ++head) {
        Coord cur = fromLinearIndex(frontier[head], width);
        for (const Coord &d : dirs) {
            Coord next{cur.x + d.x, cur.y + d.y};
            if (!mesh.contains(next) || scratch.seen(idx(next)))
                continue;
            if (!mesh.nodeAvailable(next, owner)
                || !mesh.linkAvailable(cur, next, owner))
                continue;
            scratch.visit(idx(next), idx(cur));
            if (next == dst) {
                found = true;
                break;
            }
            frontier.push_back(idx(next));
        }
    }
    if (!found) {
        // The frontier now lists the whole explored region; every
        // edge leaving it is blocked by its router or its link.
        // Marking a blocked router seen records it once.
        for (int32_t n : frontier) {
            Coord cur = fromLinearIndex(n, width);
            for (const Coord &d : dirs) {
                Coord next{cur.x + d.x, cur.y + d.y};
                if (!mesh.contains(next) || scratch.seen(idx(next)))
                    continue;
                int resource = mesh.linkResource(cur, next);
                if (!mesh.nodeAvailable(next, owner)) {
                    resource = mesh.nodeResource(next);
                    scratch.visit(idx(next), -1);
                }
                if (!scratch.addWitness(resource))
                    return std::nullopt;
            }
        }
        return std::nullopt;
    }

    Path path;
    for (int c = idx(dst); c >= 0; c = scratch.prev(c))
        path.nodes.push_back(fromLinearIndex(c, width));
    std::reverse(path.nodes.begin(), path.nodes.end());
    return path;
}

std::optional<Path>
adaptiveRoute(const Mesh &mesh, const Coord &src, const Coord &dst,
              int owner)
{
    BfsScratch scratch;
    return adaptiveRoute(mesh, src, dst, owner, scratch);
}

} // namespace qsurf::network
