/**
 * @file
 * Circuit-switched mesh tests: exclusive claim/release semantics
 * (braids cannot cross — Section 4.1), availability queries,
 * utilization accounting, and the index tables (neighbours, the one
 * owner table) against the checked coordinate queries.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "network/mesh.h"
#include "network/route.h"

namespace qsurf::network {
namespace {

Path
straightPath(int y, int x0, int x1)
{
    Path p;
    for (int x = x0; x <= x1; ++x)
        p.nodes.push_back(Coord{x, y});
    return p;
}

/** @return true when @p owner could claim @p path right now. */
bool
routeFree(const Mesh &m, const Path &path, int owner)
{
    Mesh copy = m;
    return copy.tryClaim(path, owner);
}

TEST(Mesh, DimensionsAndCounts)
{
    Mesh m(4, 3);
    EXPECT_EQ(m.numNodes(), 12);
    // Horizontal: 3*3, vertical: 4*2.
    EXPECT_EQ(m.numLinks(), 17);
    EXPECT_TRUE(m.contains(Coord{3, 2}));
    EXPECT_FALSE(m.contains(Coord{4, 0}));
    EXPECT_FALSE(m.contains(Coord{0, -1}));
}

TEST(Mesh, RejectsDegenerate)
{
    EXPECT_THROW(Mesh(0, 3), qsurf::FatalError);
}

TEST(Mesh, ClaimMakesRouteBusy)
{
    Mesh m(5, 5);
    Path p = straightPath(2, 0, 4);
    EXPECT_TRUE(routeFree(m, p, 1));
    m.claim(p, 1);
    EXPECT_FALSE(routeFree(m, p, 2));
    EXPECT_TRUE(routeFree(m, p, 1)) << "owner may reuse its own route";
    EXPECT_EQ(m.nodeOwner(Coord{2, 2}), 1);
    EXPECT_EQ(m.linkOwner(Coord{0, 2}, Coord{1, 2}), 1);
}

TEST(Mesh, CrossingRoutesConflict)
{
    Mesh m(5, 5);
    m.claim(straightPath(2, 0, 4), 1);
    // A vertical path through (2,2) must be blocked.
    Path vertical;
    for (int y = 0; y <= 4; ++y)
        vertical.nodes.push_back(Coord{2, y});
    EXPECT_FALSE(routeFree(m, vertical, 2));
}

TEST(Mesh, DisjointRoutesCoexist)
{
    Mesh m(5, 5);
    m.claim(straightPath(0, 0, 4), 1);
    Path other = straightPath(3, 0, 4);
    EXPECT_TRUE(routeFree(m, other, 2));
    m.claim(other, 2);
    EXPECT_EQ(m.busyLinks(), 8);
}

TEST(Mesh, ReleaseFreesOnlyOwnedResources)
{
    Mesh m(5, 5);
    Path a = straightPath(0, 0, 2);
    Path b = straightPath(0, 2, 4); // shares node (2,0)
    m.claim(a, 1);
    EXPECT_FALSE(routeFree(m, b, 2));
    m.release(a, 1);
    EXPECT_TRUE(routeFree(m, b, 2));
    m.claim(b, 2);
    // Releasing A again (wrong owner for B's resources) is harmless.
    m.release(a, 1);
    EXPECT_EQ(m.nodeOwner(Coord{3, 0}), 2);
}

TEST(Mesh, DoubleClaimPanics)
{
    Mesh m(4, 4);
    Path p = straightPath(1, 0, 3);
    m.claim(p, 1);
    EXPECT_THROW(m.claim(p, 2), qsurf::PanicError);
}

TEST(Mesh, ClaimWithNoOwnerIdPanics)
{
    Mesh m(4, 4);
    EXPECT_THROW(m.claim(straightPath(0, 0, 1), Mesh::no_owner),
                 qsurf::PanicError);
}

TEST(Mesh, UtilizationAveragesBusyLinks)
{
    Mesh m(2, 2); // 4 links
    m.claim(straightPath(0, 0, 1), 1); // 1 link busy
    m.tick();
    m.tick();
    m.release(straightPath(0, 0, 1), 1);
    m.tick();
    m.tick();
    EXPECT_DOUBLE_EQ(m.utilization(), (0.25 + 0.25) / 4.0);
    EXPECT_EQ(m.cycles(), 4u);
}

TEST(Mesh, ResetClearsEverything)
{
    Mesh m(3, 3);
    m.claim(straightPath(0, 0, 2), 4);
    m.tick();
    m.reset();
    EXPECT_EQ(m.busyLinks(), 0);
    EXPECT_EQ(m.cycles(), 0u);
    EXPECT_TRUE(routeFree(m, straightPath(0, 0, 2), 9));
}

TEST(Mesh, EmptyPathIsAlwaysFree)
{
    Mesh m(3, 3);
    EXPECT_TRUE(routeFree(m, Path{}, 1));
}

TEST(Path, HopsAndEndpoints)
{
    Path p = straightPath(0, 0, 3);
    EXPECT_EQ(p.hops(), 3);
    EXPECT_EQ(p.source(), (Coord{0, 0}));
    EXPECT_EQ(p.dest(), (Coord{3, 0}));
}

TEST(Mesh, TryClaimSucceedsLikeClaim)
{
    Mesh m(5, 5);
    Path p = straightPath(2, 0, 4);
    EXPECT_TRUE(m.tryClaim(p, 1));
    EXPECT_EQ(m.nodeOwner(Coord{2, 2}), 1);
    EXPECT_EQ(m.linkOwner(Coord{0, 2}, Coord{1, 2}), 1);
    EXPECT_EQ(m.busyLinks(), 4);
}

TEST(Mesh, FailedTryClaimLeavesMeshUntouched)
{
    Mesh m(5, 5);
    m.claim(straightPath(2, 0, 4), 1);
    // A vertical route crossing (2,2) fails mid-walk; nothing it
    // validated before the conflict may stay claimed.
    Path vertical;
    for (int y = 0; y <= 4; ++y)
        vertical.nodes.push_back(Coord{2, y});
    EXPECT_FALSE(m.tryClaim(vertical, 2));
    EXPECT_EQ(m.nodeOwner(Coord{2, 0}), Mesh::no_owner);
    EXPECT_EQ(m.linkOwner(Coord{2, 0}, Coord{2, 1}), Mesh::no_owner);
    EXPECT_EQ(m.busyLinks(), 4);
}

TEST(Mesh, VerticalLinksOnOneWideMesh)
{
    Mesh m(1, 4);
    Path p;
    for (int y = 0; y < 4; ++y)
        p.nodes.push_back(Coord{0, y});
    EXPECT_TRUE(m.tryClaim(p, 3));
    EXPECT_EQ(m.linkOwner(Coord{0, 1}, Coord{0, 2}), 3);
    m.release(p, 3);
    EXPECT_EQ(m.busyLinks(), 0);
}

TEST(Mesh, DefectiveNodeIsNeverClaimable)
{
    Mesh m(5, 5);
    m.disableNode(Coord{2, 2});
    EXPECT_TRUE(m.nodeDefective(Coord{2, 2}));
    EXPECT_EQ(m.numDefectiveNodes(), 1);
    Path p = straightPath(2, 0, 4); // crosses (2,2)
    EXPECT_FALSE(routeFree(m, p, 1));
    EXPECT_FALSE(m.tryClaim(p, 1));
    // The failed walk must not leave partial claims behind.
    EXPECT_EQ(m.nodeOwner(Coord{0, 2}), Mesh::no_owner);
    EXPECT_EQ(m.busyLinks(), 0);
    // Routes that stay clear of the damage are unaffected.
    EXPECT_TRUE(m.tryClaim(straightPath(0, 0, 4), 1));
}

TEST(Mesh, DefectiveLinkBlocksOnlyThatSegment)
{
    Mesh m(5, 5);
    m.disableLink(Coord{1, 2}, Coord{2, 2});
    EXPECT_TRUE(m.linkDefective(Coord{1, 2}, Coord{2, 2}));
    EXPECT_TRUE(m.linkDefective(Coord{2, 2}, Coord{1, 2}))
        << "defect is direction-agnostic";
    EXPECT_EQ(m.numDefectiveLinks(), 1);
    EXPECT_FALSE(routeFree(m, straightPath(2, 0, 4), 1));
    // Both endpoint routers are still usable by other routes.
    Path vertical;
    for (int y = 0; y <= 4; ++y)
        vertical.nodes.push_back(Coord{2, y});
    EXPECT_TRUE(m.tryClaim(vertical, 1));
}

TEST(Mesh, ReleaseCannotFreeDefects)
{
    Mesh m(4, 4);
    m.disableNode(Coord{1, 1});
    Path p;
    p.nodes.push_back(Coord{0, 1});
    p.nodes.push_back(Coord{1, 1});
    // Release with any owner id must leave the defect in place.
    m.release(p, 7);
    EXPECT_TRUE(m.nodeDefective(Coord{1, 1}));
    EXPECT_FALSE(routeFree(m, p, 7));
}

TEST(Mesh, ResetReappliesDamage)
{
    Mesh m(4, 4);
    m.disableNode(Coord{1, 1});
    m.disableLink(Coord{2, 2}, Coord{3, 2});
    m.claim(straightPath(0, 0, 3), 1);
    m.tick();
    m.reset();
    EXPECT_EQ(m.busyLinks(), 0);
    EXPECT_TRUE(m.nodeDefective(Coord{1, 1}));
    EXPECT_TRUE(m.linkDefective(Coord{2, 2}, Coord{3, 2}));
    EXPECT_EQ(m.numDefectiveNodes(), 1);
    EXPECT_EQ(m.numDefectiveLinks(), 1);
}

TEST(Mesh, DisableIsIdempotent)
{
    Mesh m(3, 3);
    m.disableNode(Coord{0, 0});
    m.disableNode(Coord{0, 0});
    m.disableLink(Coord{1, 0}, Coord{1, 1});
    m.disableLink(Coord{1, 1}, Coord{1, 0});
    EXPECT_EQ(m.numDefectiveNodes(), 1);
    EXPECT_EQ(m.numDefectiveLinks(), 1);
}

TEST(Mesh, BulkTickMatchesRepeatedTicks)
{
    Mesh a(3, 3), b(3, 3);
    a.claim(straightPath(1, 0, 2), 1);
    b.claim(straightPath(1, 0, 2), 1);
    for (int i = 0; i < 7; ++i)
        a.tick();
    b.tick(7);
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_DOUBLE_EQ(a.utilization(), b.utilization());
}

TEST(Mesh, NeighborTablesMatchCheckedIndices)
{
    // The one-wide shapes are where index distance 1 means a
    // vertical hop.
    for (const auto &[w, h] : {std::pair{1, 1}, std::pair{1, 6},
                               std::pair{6, 1}, std::pair{2, 2},
                               std::pair{5, 3}, std::pair{9, 13}}) {
        Mesh m(w, h);
        // East, west, south, north.
        const Coord dirs[4] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                Coord c{x, y};
                const Mesh::Neighbor *nb =
                    m.neighbors(m.nodeIndex(c));
                for (int k = 0; k < 4; ++k) {
                    Coord next{x + dirs[k].x, y + dirs[k].y};
                    if (!m.contains(next)) {
                        EXPECT_EQ(nb[k].node, -1);
                        EXPECT_EQ(nb[k].link, -1);
                        continue;
                    }
                    EXPECT_EQ(nb[k].node, m.nodeIndex(next));
                    int link = m.numNodes() + m.linkIndex(c, next);
                    EXPECT_EQ(nb[k].link, link)
                        << w << "x" << h << " at " << x << "," << y
                        << " dir " << k;
                    EXPECT_EQ(m.linkResource(c, next), link);
                }
            }
        }
        EXPECT_EQ(m.numResources(), m.numNodes() + m.numLinks());
    }
}

/** resourceOwner() of every id agrees with the checked queries. */
void
expectOwnersAgree(const Mesh &m)
{
    for (int y = 0; y < m.height(); ++y) {
        for (int x = 0; x < m.width(); ++x) {
            Coord c{x, y};
            EXPECT_EQ(m.resourceOwner(m.nodeResource(c)),
                      m.nodeOwner(c));
            for (Coord next : {Coord{x + 1, y}, Coord{x, y + 1}}) {
                if (!m.contains(next))
                    continue;
                EXPECT_EQ(m.resourceOwner(m.numNodes()
                                          + m.linkIndex(c, next)),
                          m.linkOwner(c, next));
            }
        }
    }
}

TEST(Mesh, ResourceOwnerAgreesThroughClaimsReleasesAndReset)
{
    Rng rng(29);
    Mesh m(8, 6);
    m.disableNode(Coord{3, 3});
    m.disableLink(Coord{0, 0}, Coord{1, 0});
    m.disableLink(Coord{5, 2}, Coord{5, 3});
    auto coord = [&] {
        return Coord{static_cast<int>(rng.below(8)),
                     static_cast<int>(rng.below(6))};
    };
    std::vector<Path> held(5);
    for (int step = 0; step < 200; ++step) {
        int owner = static_cast<int>(rng.below(5));
        Path &mine = held[static_cast<size_t>(owner)];
        if (!mine.empty() && rng.below(2)) {
            m.release(mine, owner);
            mine = Path{};
        } else if (mine.empty()) {
            Path p = xyRoute(coord(), coord());
            if (m.tryClaim(p, owner))
                mine = p;
        }
        expectOwnersAgree(m);
    }
    m.reset();
    expectOwnersAgree(m);
    EXPECT_EQ(m.nodeOwner(Coord{3, 3}), Mesh::defect_owner);
    EXPECT_EQ(m.linkOwner(Coord{1, 0}, Coord{0, 0}),
              Mesh::defect_owner);
    EXPECT_EQ(m.busyLinks(), 0);
    int defective = 0;
    for (int r = 0; r < m.numResources(); ++r)
        defective += m.resourceOwner(r) == Mesh::defect_owner;
    EXPECT_EQ(defective, 3);
    EXPECT_EQ(m.numDefectiveNodes(), 1);
    EXPECT_EQ(m.numDefectiveLinks(), 2);
}

TEST(Mesh, CopiedMeshOwnsItsTables)
{
    Mesh a(4, 4);
    Path p;
    p.nodes.push_back(Coord{0, 0});
    p.nodes.push_back(Coord{1, 0});
    Mesh b = a;
    b.claim(p, 3);
    EXPECT_EQ(a.linkOwner(Coord{0, 0}, Coord{1, 0}), Mesh::no_owner);
    EXPECT_EQ(b.resourceOwner(b.neighbors(0)[Mesh::east].link), 3);
    EXPECT_EQ(a.resourceOwner(a.neighbors(0)[Mesh::east].link),
              Mesh::no_owner);
}

} // namespace
} // namespace qsurf::network
