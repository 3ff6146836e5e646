/**
 * @file
 * Exactness of the claimers' failure witnesses.
 *
 * RouteClaimer and ChainClaimer answer a stalled owner's repeat
 * attempt from the witnesses its last failure left, without walking
 * the route or searching.  That is only allowed when the answer is
 * the one a full attempt would give.  These tests drive seeded
 * random claim/release sequences on damaged meshes and compare every
 * memoized answer with a memo-free oracle: a fresh claimer on a copy
 * of the mesh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/sim.h"
#include "network/route.h"

namespace qsurf::engine {
namespace {

using network::Mesh;
using network::Path;

Path
single(const Coord &c)
{
    Path p;
    p.nodes.push_back(c);
    return p;
}

Coord
randomCoord(Rng &rng, const Mesh &mesh)
{
    return Coord{static_cast<int>(rng.below(
                     static_cast<uint64_t>(mesh.width()))),
                 static_cast<int>(rng.below(
                     static_cast<uint64_t>(mesh.height())))};
}

/** Every resource's owner, nodes then links. */
std::vector<int>
owners(const Mesh &mesh)
{
    std::vector<int> out;
    for (int r = 0; r < mesh.numNodes() + mesh.numLinks(); ++r)
        out.push_back(mesh.resourceOwner(r));
    return out;
}

/** Disable a few random routers and links, sparing @p keep. */
void
damage(Mesh &mesh, Rng &rng, int nodes, int links,
       const std::vector<Coord> &keep)
{
    for (int k = 0; k < nodes; ++k) {
        Coord c = randomCoord(rng, mesh);
        if (std::find(keep.begin(), keep.end(), c) == keep.end())
            mesh.disableNode(c);
    }
    for (int k = 0; k < links; ++k) {
        Coord a = randomCoord(rng, mesh);
        Coord b = a;
        if (rng.below(2) && a.x + 1 < mesh.width())
            ++b.x;
        else if (a.y + 1 < mesh.height())
            ++b.y;
        if (!(a == b))
            mesh.disableLink(a, b);
    }
}

std::string
describe(const std::optional<Path> &p)
{
    if (!p)
        return "nullopt";
    std::string s;
    for (const Coord &c : p->nodes) {
        s += '(';
        s += std::to_string(c.x);
        s += ',';
        s += std::to_string(c.y);
        s += ')';
    }
    return s;
}

/** One requester of the random sequences. */
struct Owner
{
    Coord src;
    std::vector<Coord> dsts; ///< Up to 3 candidates, nearest first.
    bool yx_first = false;
    int wait = 0;
    bool placed = false;
    Path held;
};

constexpr RouteClaimOptions claim_opts{3, 6};

/**
 * The candidates an owner tries this attempt, like
 * appendStockedFactories(): one until adapt_timeout, then up to
 * three, some of which may be out of stock.
 */
std::vector<Coord>
candidates(const Owner &o, Rng &rng)
{
    if (o.wait < claim_opts.adapt_timeout || o.dsts.size() == 1)
        return {o.dsts.front()};
    std::vector<Coord> out;
    for (const Coord &d : o.dsts)
        if (rng.below(4) != 0)
            out.push_back(d);
    return out;
}

/** Coverage of one random sequence. */
struct Coverage
{
    uint64_t attempts = 0;
    uint64_t successes = 0;
    uint64_t transposed = 0;
    uint64_t detours = 0;
    uint64_t witnessed = 0;
};

// ------------------------------------------------------ RouteClaimer

Owner
newRouteRequest(Rng &rng, const Mesh &mesh)
{
    Owner o;
    o.src = randomCoord(rng, mesh);
    int n = rng.below(3) == 0 ? 3 : 1;
    while (static_cast<int>(o.dsts.size()) < n) {
        Coord d = randomCoord(rng, mesh);
        if (!(d == o.src))
            o.dsts.push_back(d);
    }
    o.yx_first = rng.below(2) != 0;
    return o;
}

Coverage
runRouteSequence(uint64_t seed, int width, int height, int n_owners,
                 int steps)
{
    Rng rng(seed);
    Mesh mesh(width, height);
    damage(mesh, rng, width * height / 20, width * height / 15, {});
    RouteClaimer claimer(mesh, claim_opts, n_owners);
    std::vector<Owner> pool;
    for (int k = 0; k < n_owners; ++k)
        pool.push_back(newRouteRequest(rng, mesh));

    Coverage cov;
    for (int step = 0; step < steps; ++step) {
        auto id = static_cast<int>(
            rng.below(static_cast<uint64_t>(n_owners)));
        Owner &o = pool[static_cast<size_t>(id)];
        if (o.placed) {
            if (rng.below(3) == 0) {
                mesh.release(o.held, id);
                o = newRouteRequest(rng, mesh);
            }
            continue;
        }
        // Repeat the same stage, step over a threshold, or drop.
        o.wait = rng.below(12) == 0
            ? 0
            : o.wait + static_cast<int>(rng.below(3));
        // The same endpoints with the other geometry (a braid's
        // closing segment) are a different route.
        if (rng.below(8) == 0)
            o.yx_first = !o.yx_first;
        for (const Coord &dst : candidates(o, rng)) {
            Mesh copy = mesh;
            RouteClaimer fresh(copy, claim_opts, n_owners);
            auto want =
                fresh.tryClaim(o.src, dst, id, o.wait, o.yx_first);
            auto got =
                claimer.tryClaim(o.src, dst, id, o.wait, o.yx_first);
            ++cov.attempts;
            EXPECT_EQ(describe(got), describe(want))
                << "seed " << seed << " step " << step << " owner "
                << id << " wait " << o.wait;
            EXPECT_EQ(owners(mesh), owners(copy))
                << "seed " << seed << " step " << step;
            if (got) {
                ++cov.successes;
                o.placed = true;
                o.held = *got;
                break;
            }
        }
        if (testing::Test::HasFailure())
            break;
    }
    cov.transposed = claimer.transposeFallbacks();
    cov.detours = claimer.bfsDetours();
    cov.witnessed = claimer.witnessedFailures();
    // Memory follows the stalled owners: placed owners hold none.
    size_t stalled = 0;
    for (const Owner &o : pool)
        stalled += o.placed ? 0 : 1;
    EXPECT_LE(claimer.stalledOwners(), stalled);
    return cov;
}

TEST(ClaimMemo, RouteClaimerMatchesAFreshClaimer)
{
    Coverage total;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        // Small meshes keep BFS boundaries short; the wide one
        // has long ones.
        bool wide = seed % 3 == 0;
        Coverage c = runRouteSequence(seed, wide ? 24 : 7,
                                      wide ? 18 : 6, wide ? 40 : 9,
                                      3000);
        total.attempts += c.attempts;
        total.successes += c.successes;
        total.transposed += c.transposed;
        total.detours += c.detours;
        total.witnessed += c.witnessed;
    }
    EXPECT_GT(total.successes, 0u);
    EXPECT_GT(total.transposed, 0u);
    EXPECT_GT(total.detours, 0u);
    EXPECT_GT(total.witnessed, total.attempts / 10);
}

// ------------------------------------------------------ ChainClaimer

/**
 * A fresh ChainClaimer on @p copy with @p terminals reserved in the
 * same order as the claimer under test (so with the same sentinel
 * owners).  A terminal a live chain holds is handed to the sentinel
 * just long enough to reserve it.
 */
void
reserveLike(ChainClaimer &fresh, Mesh &copy,
            const std::vector<Coord> &terminals,
            const std::vector<int> &sentinels)
{
    for (size_t k = 0; k < terminals.size(); ++k) {
        const Coord &t = terminals[k];
        int holder = copy.nodeOwner(t);
        bool chain = holder != sentinels[k];
        if (chain)
            copy.release(single(t), holder);
        fresh.reserveTerminal(t);
        if (chain) {
            copy.release(single(t), sentinels[k]);
            copy.claim(single(t), holder);
        }
    }
}

Owner
newChainRequest(Rng &rng, const std::vector<Coord> &terminals)
{
    Owner o;
    auto pick = [&] {
        return terminals[static_cast<size_t>(rng.below(
            static_cast<uint64_t>(terminals.size())))];
    };
    o.src = pick();
    int n = rng.below(3) == 0 ? 3 : 1;
    while (static_cast<int>(o.dsts.size()) < n) {
        Coord d = pick();
        if (!(d == o.src)
            && std::find(o.dsts.begin(), o.dsts.end(), d)
                   == o.dsts.end())
            o.dsts.push_back(d);
    }
    return o;
}

Coverage
runChainSequence(uint64_t seed, int width, int height,
                 int n_terminals, int n_owners, int steps)
{
    Rng rng(seed);
    Mesh mesh(width, height);
    std::vector<Coord> terminals;
    while (static_cast<int>(terminals.size()) < n_terminals) {
        Coord c = randomCoord(rng, mesh);
        if (std::find(terminals.begin(), terminals.end(), c)
            == terminals.end())
            terminals.push_back(c);
    }
    damage(mesh, rng, width * height / 25, width * height / 15,
           terminals);
    ChainClaimer claimer(mesh, claim_opts, n_owners);
    std::vector<int> sentinels;
    for (const Coord &t : terminals) {
        claimer.reserveTerminal(t);
        sentinels.push_back(mesh.nodeOwner(t));
    }
    // Few terminals and many owners: commuting ops share a qubit, so
    // an endpoint is often held by another owner's chain.
    std::vector<Owner> pool;
    for (int k = 0; k < n_owners; ++k)
        pool.push_back(newChainRequest(rng, terminals));

    Coverage cov;
    for (int step = 0; step < steps; ++step) {
        auto id = static_cast<int>(
            rng.below(static_cast<uint64_t>(n_owners)));
        Owner &o = pool[static_cast<size_t>(id)];
        if (o.placed) {
            if (rng.below(3) == 0) {
                claimer.release(o.held, id);
                o = newChainRequest(rng, terminals);
            }
            continue;
        }
        o.wait = rng.below(12) == 0
            ? 0
            : o.wait + static_cast<int>(rng.below(3));
        for (const Coord &dst : candidates(o, rng)) {
            // Corridor geometry is a pure function of the endpoints.
            Path primary = network::xyRoute(o.src, dst);
            Path fallback = network::yxRoute(o.src, dst);
            Mesh copy = mesh;
            ChainClaimer fresh(copy, claim_opts, n_owners);
            reserveLike(fresh, copy, terminals, sentinels);
            auto want = fresh.tryClaim(primary, fallback, id, o.wait);
            auto got = claimer.tryClaim(primary, fallback, id, o.wait);
            ++cov.attempts;
            EXPECT_EQ(describe(got), describe(want))
                << "seed " << seed << " step " << step << " owner "
                << id << " wait " << o.wait;
            EXPECT_EQ(owners(mesh), owners(copy))
                << "seed " << seed << " step " << step;
            if (got) {
                ++cov.successes;
                o.placed = true;
                o.held = *got;
                break;
            }
        }
        if (testing::Test::HasFailure())
            break;
    }
    cov.transposed = claimer.transposeFallbacks();
    cov.detours = claimer.bfsDetours();
    cov.witnessed = claimer.witnessedFailures();
    size_t stalled = 0;
    for (const Owner &o : pool)
        stalled += o.placed ? 0 : 1;
    EXPECT_LE(claimer.stalledOwners(), stalled);
    return cov;
}

TEST(ClaimMemo, ChainClaimerMatchesAFreshClaimer)
{
    Coverage total;
    for (uint64_t seed = 11; seed <= 16; ++seed) {
        bool wide = seed % 3 == 0;
        Coverage c = runChainSequence(seed, wide ? 22 : 8,
                                      wide ? 16 : 7, wide ? 30 : 8,
                                      wide ? 30 : 10, 3000);
        total.attempts += c.attempts;
        total.successes += c.successes;
        total.transposed += c.transposed;
        total.detours += c.detours;
        total.witnessed += c.witnessed;
    }
    EXPECT_GT(total.successes, 0u);
    EXPECT_GT(total.transposed, 0u);
    EXPECT_GT(total.detours, 0u);
    EXPECT_GT(total.witnessed, total.attempts / 10);
}

TEST(ClaimMemo, OwnEndpointSentinelIsNotAWitness)
{
    // Terminals A and B; another owner's chain holds A when owner 1
    // first tries A -> B, so A (its own endpoint) is the witness.
    Mesh mesh(6, 3);
    ChainClaimer claimer(mesh, claim_opts, /*num_owners=*/8);
    Coord a{0, 1};
    Coord b{5, 1};
    Coord c{0, 0};
    claimer.reserveTerminal(a);
    claimer.reserveTerminal(b);
    claimer.reserveTerminal(c);
    Path other = network::xyRoute(c, a);
    ASSERT_TRUE(claimer.tryClaim(other, network::yxRoute(c, a), 7, 0));

    Path primary = network::xyRoute(a, b);
    Path fallback = network::yxRoute(a, b);
    EXPECT_FALSE(claimer.tryClaim(primary, fallback, 1, 0));
    EXPECT_FALSE(claimer.tryClaim(primary, fallback, 1, 0));
    EXPECT_EQ(claimer.witnessedFailures(), 1u);
    EXPECT_EQ(claimer.stalledOwners(), 1u); // 7 placed at once.

    // Releasing the other chain hands A back to its sentinel; the
    // real attempt suspends that, so the witness no longer holds.
    claimer.release(other, 7);
    EXPECT_NE(mesh.nodeOwner(a), Mesh::no_owner);
    auto got = claimer.tryClaim(primary, fallback, 1, 0);
    ASSERT_TRUE(got);
    EXPECT_EQ(describe(got), describe(primary));
    EXPECT_EQ(claimer.stalledOwners(), 0u);
}

// ------------------------------------------------- BFS boundary witness

std::vector<int32_t>
sorted(std::vector<int32_t> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

TEST(ClaimMemo, FailedSearchLeavesItsBoundary)
{
    Mesh mesh(7, 7);
    std::vector<int32_t> ring;
    for (Coord c : {Coord{2, 3}, Coord{4, 3}, Coord{3, 2},
                    Coord{3, 4}}) {
        mesh.claim(single(c), 1);
        ring.push_back(mesh.nodeResource(c));
    }
    network::BfsScratch scratch;
    EXPECT_FALSE(network::adaptiveRoute(mesh, Coord{0, 0},
                                        Coord{3, 3}, 2, scratch));
    EXPECT_FALSE(scratch.witnessOverflow());
    EXPECT_EQ(sorted(scratch.witnesses()), sorted(ring));

    // A held endpoint is its own witness.
    EXPECT_FALSE(network::adaptiveRoute(mesh, Coord{2, 3},
                                        Coord{0, 0}, 2, scratch));
    EXPECT_EQ(scratch.witnesses(),
              std::vector<int32_t>{mesh.nodeResource(Coord{2, 3})});

    mesh.release(single(Coord{4, 3}), 1);
    EXPECT_TRUE(network::adaptiveRoute(mesh, Coord{0, 0},
                                       Coord{3, 3}, 2, scratch));
    EXPECT_TRUE(scratch.witnesses().empty());
}

TEST(ClaimMemo, BoundaryPastTheCapOverflows)
{
    // A wall in column 1 encloses column 0: the boundary is one
    // router per row.
    const auto cap = static_cast<int>(network::BfsScratch::max_witnesses);
    for (int rows : {cap, cap + 1}) {
        Mesh mesh(3, rows);
        for (int y = 0; y < rows; ++y)
            mesh.claim(single(Coord{1, y}), 1);
        network::BfsScratch scratch;
        EXPECT_FALSE(network::adaptiveRoute(mesh, Coord{0, 0},
                                            Coord{2, 0}, 2, scratch));
        bool over = rows > cap;
        EXPECT_EQ(scratch.witnessOverflow(), over) << rows;
        EXPECT_EQ(scratch.witnesses().size(),
                  over ? 0u : static_cast<size_t>(rows));
    }
}

TEST(ClaimMemo, OverflowedSearchIsWalkedAgain)
{
    // The same wall, one router past the cap: the failed search
    // leaves no witness, so freeing the far end of the wall must
    // let the next attempt through.
    const auto rows =
        static_cast<int>(network::BfsScratch::max_witnesses) + 1;
    Mesh mesh(3, rows);
    for (int y = 0; y < rows; ++y)
        mesh.claim(single(Coord{1, y}), 1);
    RouteClaimer claimer(mesh, claim_opts, /*num_owners=*/3);
    int wait = claim_opts.bfs_timeout;
    EXPECT_FALSE(
        claimer.tryClaim(Coord{0, 0}, Coord{2, 0}, 2, wait, false));
    mesh.release(single(Coord{1, rows - 1}), 1);
    EXPECT_TRUE(
        claimer.tryClaim(Coord{0, 0}, Coord{2, 0}, 2, wait, false));
    EXPECT_EQ(claimer.witnessedFailures(), 0u);
    EXPECT_EQ(claimer.bfsDetours(), 1u);
}

} // namespace
} // namespace qsurf::engine
