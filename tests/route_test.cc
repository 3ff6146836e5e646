/**
 * @file
 * Routing tests: dimension-ordered path shape, adaptive BFS detours
 * around busy regions, unreachability reporting, and exactness of
 * the index-based search against a coordinate-based reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "network/route.h"

namespace qsurf::network {
namespace {

void
expectContiguous(const Path &p)
{
    for (size_t i = 0; i + 1 < p.nodes.size(); ++i)
        EXPECT_EQ(manhattan(p.nodes[i], p.nodes[i + 1]), 1)
            << "gap at hop " << i;
}

TEST(XyRoute, MinimalAndXFirst)
{
    Path p = xyRoute(Coord{1, 1}, Coord{4, 3});
    expectContiguous(p);
    EXPECT_EQ(p.hops(), 5);
    EXPECT_EQ(p.source(), (Coord{1, 1}));
    EXPECT_EQ(p.dest(), (Coord{4, 3}));
    // The second node moves in x.
    EXPECT_EQ(p.nodes[1], (Coord{2, 1}));
}

TEST(DimensionOrderedRoute, InPlaceMatchesXyAndYx)
{
    // The long route first: later walks reuse its grown buffer.
    Path out;
    for (const auto &[src, dst] :
         {std::pair{Coord{0, 7}, Coord{30, 0}},
          std::pair{Coord{1, 1}, Coord{4, 3}},
          std::pair{Coord{4, 3}, Coord{0, 0}},
          std::pair{Coord{2, 2}, Coord{2, 2}}}) {
        dimensionOrderedRoute(src, dst, false, out);
        EXPECT_TRUE(out.nodes == xyRoute(src, dst).nodes);
        dimensionOrderedRoute(src, dst, true, out);
        EXPECT_TRUE(out.nodes == yxRoute(src, dst).nodes);
    }
}

TEST(YxRoute, MinimalAndYFirst)
{
    Path p = yxRoute(Coord{1, 1}, Coord{4, 3});
    expectContiguous(p);
    EXPECT_EQ(p.hops(), 5);
    EXPECT_EQ(p.nodes[1], (Coord{1, 2}));
}

TEST(Route, NegativeDirections)
{
    Path p = xyRoute(Coord{4, 3}, Coord{0, 0});
    expectContiguous(p);
    EXPECT_EQ(p.hops(), 7);
}

TEST(Route, DegenerateSameEndpoint)
{
    Path p = xyRoute(Coord{2, 2}, Coord{2, 2});
    EXPECT_EQ(p.hops(), 0);
    ASSERT_EQ(p.nodes.size(), 1u);
}

TEST(AdaptiveRoute, FindsShortestWhenFree)
{
    Mesh m(6, 6);
    BfsScratch scratch;
    auto p = adaptiveRoute(m, Coord{0, 0}, Coord{3, 2}, 1, scratch);
    ASSERT_TRUE(p.has_value());
    expectContiguous(*p);
    EXPECT_EQ(p->hops(), 5) << "BFS must find a minimal path";
}

TEST(AdaptiveRoute, DetoursAroundWall)
{
    Mesh m(5, 5);
    BfsScratch scratch;
    // Wall on column x=2, leaving only y=4 open.
    Path wall;
    for (int y = 0; y <= 3; ++y)
        wall.nodes.push_back(Coord{2, y});
    m.claim(wall, 7);

    auto p = adaptiveRoute(m, Coord{0, 0}, Coord{4, 0}, 1, scratch);
    ASSERT_TRUE(p.has_value());
    expectContiguous(*p);
    EXPECT_GT(p->hops(), 4) << "must detour below the wall";
    for (const Coord &c : p->nodes)
        EXPECT_TRUE(m.resourceAvailable(m.nodeResource(c), 1));
}

TEST(AdaptiveRoute, NulloptWhenSealed)
{
    Mesh m(5, 5);
    BfsScratch scratch;
    Path wall;
    for (int y = 0; y <= 4; ++y)
        wall.nodes.push_back(Coord{2, y});
    m.claim(wall, 7);
    EXPECT_FALSE(adaptiveRoute(m, Coord{0, 0}, Coord{4, 0}, 1, scratch)
                     .has_value());
}

TEST(AdaptiveRoute, OwnResourcesCountAsFree)
{
    Mesh m(5, 5);
    BfsScratch scratch;
    Path wall;
    for (int y = 0; y <= 4; ++y)
        wall.nodes.push_back(Coord{2, y});
    m.claim(wall, 7);
    // Owner 7 may route through its own wall.
    auto p = adaptiveRoute(m, Coord{0, 0}, Coord{4, 0}, 7, scratch);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->hops(), 4);
}

TEST(AdaptiveRoute, BusyEndpointFails)
{
    Mesh m(4, 4);
    BfsScratch scratch;
    Path spot;
    spot.nodes.push_back(Coord{3, 3});
    m.claim(spot, 9);
    EXPECT_FALSE(adaptiveRoute(m, Coord{0, 0}, Coord{3, 3}, 1, scratch)
                     .has_value());
    EXPECT_FALSE(adaptiveRoute(m, Coord{3, 3}, Coord{0, 0}, 1, scratch)
                     .has_value());
}

TEST(AdaptiveRoute, SameEndpointTrivial)
{
    Mesh m(3, 3);
    BfsScratch scratch;
    auto p = adaptiveRoute(m, Coord{1, 1}, Coord{1, 1}, 1, scratch);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->hops(), 0);
}

TEST(AdaptiveRoute, OutsideMeshIsFatal)
{
    Mesh m(3, 3);
    BfsScratch scratch;
    EXPECT_THROW(
        adaptiveRoute(m, Coord{0, 0}, Coord{5, 5}, 1, scratch),
        qsurf::FatalError);
}

TEST(AdaptiveRoute, ReusedScratchMatchesFreshScratch)
{
    Mesh m(6, 6);
    Path wall;
    for (int y = 0; y <= 3; ++y)
        wall.nodes.push_back(Coord{3, y});
    m.claim(wall, 7);

    // One scratch across many searches (the claimers' usage) must
    // reproduce a fresh scratch exactly, node for node.
    BfsScratch scratch;
    for (int trial = 0; trial < 50; ++trial) {
        for (const Coord &dst :
             {Coord{5, 0}, Coord{5, 5}, Coord{0, 5}}) {
            auto reused =
                adaptiveRoute(m, Coord{0, 0}, dst, 1, scratch);
            BfsScratch once;
            auto fresh = adaptiveRoute(m, Coord{0, 0}, dst, 1, once);
            ASSERT_EQ(reused.has_value(), fresh.has_value());
            if (reused) {
                EXPECT_TRUE(reused->nodes == fresh->nodes);
            }
        }
    }
}

TEST(AdaptiveRoute, ScratchSurvivesMeshSizeChange)
{
    BfsScratch scratch;
    Mesh small(3, 3);
    EXPECT_TRUE(adaptiveRoute(small, Coord{0, 0}, Coord{2, 2}, 1,
                              scratch)
                    .has_value());
    Mesh big(9, 9);
    auto p =
        adaptiveRoute(big, Coord{0, 0}, Coord{8, 8}, 1, scratch);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->hops(), 16);
}

// ------------------------------------------- reference-search exactness

/** What one search returned: the path and the failure witness. */
struct SearchResult
{
    std::optional<Path> path;
    std::vector<int32_t> witnesses;
    bool overflow = false;
};

/**
 * The coordinate-based BFS the index-based adaptiveRoute() replaced,
 * kept as the reference: neighbours from coordinate offsets, owners
 * through the checked nodeOwner()/linkOwner() queries, and the same
 * expansion order (east, west, south, north) and witness cap.
 */
SearchResult
referenceRoute(const Mesh &mesh, const Coord &src, const Coord &dst,
               int owner)
{
    SearchResult out;
    auto free = [owner](int holder) {
        return holder == Mesh::no_owner || holder == owner;
    };
    auto witness = [&out](int32_t resource) {
        if (out.witnesses.size() == BfsScratch::max_witnesses) {
            out.witnesses.clear();
            out.overflow = true;
            return false;
        }
        out.witnesses.push_back(resource);
        return true;
    };
    auto linkId = [&mesh](const Coord &a, const Coord &b) {
        return mesh.numNodes() + mesh.linkIndex(a, b);
    };
    int width = mesh.width();
    if (!free(mesh.nodeOwner(src))) {
        witness(linearIndex(src, width));
        return out;
    }
    if (!free(mesh.nodeOwner(dst))) {
        witness(linearIndex(dst, width));
        return out;
    }
    if (src == dst) {
        out.path = Path{{src}};
        return out;
    }

    static constexpr std::array<Coord, 4> dirs{
        {{1, 0}, {-1, 0}, {0, 1}, {0, -1}}};
    std::vector<int> prev(static_cast<size_t>(mesh.numNodes()), -1);
    std::vector<bool> seen(static_cast<size_t>(mesh.numNodes()), false);
    auto idx = [width](const Coord &c) {
        return static_cast<size_t>(linearIndex(c, width));
    };
    std::vector<Coord> frontier{src};
    seen[idx(src)] = true;
    bool found = false;
    for (size_t head = 0; head < frontier.size() && !found; ++head) {
        Coord cur = frontier[head];
        for (const Coord &d : dirs) {
            Coord next{cur.x + d.x, cur.y + d.y};
            if (!mesh.contains(next) || seen[idx(next)])
                continue;
            if (!free(mesh.nodeOwner(next))
                || !free(mesh.linkOwner(cur, next)))
                continue;
            seen[idx(next)] = true;
            prev[idx(next)] = static_cast<int>(idx(cur));
            if (next == dst) {
                found = true;
                break;
            }
            frontier.push_back(next);
        }
    }
    if (!found) {
        for (const Coord &cur : frontier) {
            for (const Coord &d : dirs) {
                Coord next{cur.x + d.x, cur.y + d.y};
                if (!mesh.contains(next) || seen[idx(next)])
                    continue;
                int32_t resource = linkId(cur, next);
                if (!free(mesh.nodeOwner(next))) {
                    resource = static_cast<int32_t>(idx(next));
                    seen[idx(next)] = true;
                }
                if (!witness(resource))
                    return out;
            }
        }
        return out;
    }
    Path path;
    for (int c = static_cast<int>(idx(dst)); c >= 0;
         c = prev[static_cast<size_t>(c)])
        path.nodes.push_back(fromLinearIndex(c, width));
    std::reverse(path.nodes.begin(), path.nodes.end());
    out.path = path;
    return out;
}

Coord
randomCoord(Rng &rng, const Mesh &mesh)
{
    return Coord{static_cast<int>(rng.below(
                     static_cast<uint64_t>(mesh.width()))),
                 static_cast<int>(rng.below(
                     static_cast<uint64_t>(mesh.height())))};
}

/** Coverage of the exactness runs. */
struct SearchCoverage
{
    int found = 0;
    int detours = 0;    ///< Found paths longer than Manhattan.
    int sealed = 0;     ///< Failures past a free source/destination.
    int overflowed = 0; ///< Failures past the witness cap.
    int own_route = 0;  ///< Searches by an owner holding resources.
};

/**
 * Damage a width x height mesh, let several owners claim random
 * dimension-ordered routes, then compare @p searches searches
 * (one reused scratch) with the reference, node for node and
 * witness for witness.
 */
void
compareWithReference(uint64_t seed, int width, int height,
                     int claims, int searches, SearchCoverage &cov)
{
    Rng rng(seed);
    Mesh mesh(width, height);
    for (int k = 0; k < width * height / 12; ++k)
        mesh.disableNode(randomCoord(rng, mesh));
    for (int k = 0; k < width * height / 10; ++k) {
        Coord a = randomCoord(rng, mesh);
        Coord b = a;
        if (rng.below(2) && a.x + 1 < width)
            ++b.x;
        else if (a.y + 1 < height)
            ++b.y;
        if (!(a == b))
            mesh.disableLink(a, b);
    }
    const int owners = 6;
    std::vector<Path> held(owners);
    for (int k = 0; k < claims; ++k) {
        int owner = static_cast<int>(rng.below(owners));
        Path p = rng.below(2)
            ? xyRoute(randomCoord(rng, mesh), randomCoord(rng, mesh))
            : yxRoute(randomCoord(rng, mesh), randomCoord(rng, mesh));
        if (mesh.tryClaim(p, owner))
            held[static_cast<size_t>(owner)] = p;
    }

    BfsScratch scratch;
    for (int k = 0; k < searches; ++k) {
        int owner = static_cast<int>(rng.below(owners + 1));
        Coord src = randomCoord(rng, mesh);
        Coord dst = randomCoord(rng, mesh);
        // Half of an owner's searches start on its own route.
        const Path &own = held[static_cast<size_t>(owner % owners)];
        bool on_own = owner < owners && !own.empty() && rng.below(2);
        if (on_own)
            src = own.nodes[static_cast<size_t>(
                rng.below(own.nodes.size()))];
        SearchResult want = referenceRoute(mesh, src, dst, owner);
        auto got = adaptiveRoute(mesh, src, dst, owner, scratch);
        ASSERT_EQ(got.has_value(), want.path.has_value())
            << "seed " << seed << " search " << k;
        if (got) {
            ASSERT_TRUE(got->nodes == want.path->nodes)
                << "seed " << seed << " search " << k;
            EXPECT_TRUE(scratch.witnesses().empty());
            ++cov.found;
            cov.detours += got->hops() > manhattan(src, dst);
        } else {
            ASSERT_EQ(scratch.witnesses(), want.witnesses)
                << "seed " << seed << " search " << k;
            ASSERT_EQ(scratch.witnessOverflow(), want.overflow);
            cov.overflowed += want.overflow;
            cov.sealed +=
                mesh.resourceAvailable(mesh.nodeResource(src), owner)
                && mesh.resourceAvailable(mesh.nodeResource(dst), owner);
        }
        cov.own_route += on_own;
    }
}

TEST(AdaptiveRoute, MatchesCoordinateReference)
{
    SearchCoverage cov;
    struct Shape
    {
        int w, h, claims;
    };
    // 1xN meshes take the one-wide link special case, Nx1 its
    // mirror; the 70x70 mesh has boundaries past the witness cap.
    for (const Shape &shape :
         {Shape{1, 1, 0}, Shape{1, 17, 3}, Shape{23, 1, 3},
          Shape{2, 9, 4}, Shape{7, 6, 8}, Shape{16, 11, 30},
          Shape{31, 24, 120}, Shape{70, 70, 900}}) {
        for (uint64_t seed = 1; seed <= 4; ++seed)
            compareWithReference(seed * 7919 + shape.w, shape.w,
                                 shape.h, shape.claims, 300, cov);
        if (testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_GT(cov.found, 0);
    EXPECT_GT(cov.detours, 0);
    EXPECT_GT(cov.sealed, 0);
    EXPECT_GT(cov.overflowed, 0);
    EXPECT_GT(cov.own_route, 0);
}

} // namespace
} // namespace qsurf::network
