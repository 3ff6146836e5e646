#include "engine/sim.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "network/route.h"

namespace qsurf::engine {

ClaimMemo::Slot *
ClaimMemo::find(int owner, int32_t src, int32_t dst, bool yx_first)
{
    assert(owner >= 0 && static_cast<size_t>(owner) < index_.size());
    int32_t e = index_[static_cast<size_t>(owner)];
    if (e < 0)
        return nullptr;
    Entry &entry = pool_[static_cast<size_t>(e)];
    int used = std::min(entry.inserted, max_slots);
    for (int k = 0; k < used; ++k) {
        Slot &slot = entry.slots[static_cast<size_t>(k)];
        if (slot.src == src && slot.dst == dst
            && slot.yx_first == yx_first)
            return &slot;
    }
    return nullptr;
}

ClaimMemo::Slot &
ClaimMemo::insert(int owner, int32_t src, int32_t dst, bool yx_first)
{
    panicIf(owner < 0 || static_cast<size_t>(owner) >= index_.size(),
            "claim owner ", owner, " outside the memo's ",
            index_.size(), " owners");
    int32_t &e = index_[static_cast<size_t>(owner)];
    if (e < 0) {
        if (free_.empty()) {
            e = static_cast<int32_t>(pool_.size());
            pool_.emplace_back();
        } else {
            e = free_.back();
            free_.pop_back();
        }
        pool_[static_cast<size_t>(e)].inserted = 0;
    }
    Entry &entry = pool_[static_cast<size_t>(e)];
    Slot &slot = entry.slots[static_cast<size_t>(entry.inserted++
                                                 % max_slots)];
    slot.src = src;
    slot.dst = dst;
    slot.yx_first = yx_first;
    slot.primary = -1;
    slot.fallback = -1;
    slot.bfs_witnessed = false;
    slot.bfs_boundary.clear();
    return slot;
}

template <typename Route, typename Suspends, typename Suspend>
std::optional<network::Path>
EscalatingClaimer::escalate(int owner, const Coord &src,
                            const Coord &dst, int wait, bool yx_first,
                            Route &&route, Suspends &&suspends,
                            Suspend &&suspend)
{
    auto s = static_cast<int32_t>(mesh_.nodeResource(src));
    auto d = static_cast<int32_t>(mesh_.nodeResource(dst));
    ClaimMemo::Slot *slot = memo_.find(owner, s, d, yx_first);

    // A stage is walked unless its last failure is still witnessed:
    // held by someone else, and not by a hold the attempt suspends.
    auto held = [&](int32_t resource) {
        if (resource < 0)
            return false;
        int holder = mesh_.resourceOwner(resource);
        return holder != network::Mesh::no_owner && holder != owner
            && !suspends(resource, holder);
    };
    auto bfsHeld = [&](const ClaimMemo::Slot &m) {
        return m.bfs_witnessed
            && std::all_of(m.bfs_boundary.begin(),
                           m.bfs_boundary.end(), held);
    };
    bool walk_primary = !slot || !held(slot->primary);
    bool walk_fallback = wait >= opts_.adapt_timeout
        && (!slot || !held(slot->fallback));
    bool walk_bfs = wait >= opts_.bfs_timeout
        && (!slot || !bfsHeld(*slot));
    if (!walk_primary && !walk_fallback && !walk_bfs) {
        ++witnessed_failures_;
        return std::nullopt;
    }

    suspend(true);
    int32_t primary_blocker = -1;
    int32_t fallback_blocker = -1;
    if (walk_primary) {
        decltype(auto) path = route(false);
        if (mesh_.tryClaim(path, owner)) {
            memo_.erase(owner);
            return path;
        }
        primary_blocker = mesh_.blocker();
    }
    if (walk_fallback) {
        decltype(auto) path = route(true);
        if (mesh_.tryClaim(path, owner)) {
            ++transpose_fallbacks_;
            memo_.erase(owner);
            return path;
        }
        fallback_blocker = mesh_.blocker();
    }
    if (walk_bfs) {
        auto detour =
            network::adaptiveRoute(mesh_, src, dst, owner, scratch_);
        if (detour) {
            ++bfs_detours_;
            mesh_.claim(*detour, owner);
            memo_.erase(owner);
            return detour;
        }
    }
    suspend(false);

    if (!slot)
        slot = &memo_.insert(owner, s, d, yx_first);
    if (walk_primary)
        slot->primary = primary_blocker;
    if (walk_fallback)
        slot->fallback = fallback_blocker;
    if (walk_bfs) {
        slot->bfs_witnessed = !scratch_.witnessOverflow();
        slot->bfs_boundary.assign(scratch_.witnesses().begin(),
                                  scratch_.witnesses().end());
    }
    return std::nullopt;
}

std::optional<network::Path>
RouteClaimer::tryClaim(const Coord &src, const Coord &dst, int owner,
                       int wait, bool yx_first)
{
    return escalate(
        owner, src, dst, wait, yx_first,
        [&](bool fallback) -> const network::Path & {
            network::dimensionOrderedRoute(src, dst,
                                           yx_first != fallback, route_);
            return route_;
        },
        [](int, int) { return false; }, [](bool) {});
}

void
ChainClaimer::reserveTerminal(const Coord &terminal)
{
    auto idx = static_cast<size_t>(
        linearIndex(terminal, mesh_.width()));
    if (reserved_[idx] >= 0)
        return;
    int sentinel = reserved_owner_base + num_reserved_++;
    reserved_[idx] = sentinel;
    network::Path node;
    node.nodes.push_back(terminal);
    panicIf(!mesh_.tryClaim(node, sentinel),
            "patch terminal already claimed on the mesh");
}

bool
ChainClaimer::isReserved(const Coord &c) const
{
    return reserved_[static_cast<size_t>(
               linearIndex(c, mesh_.width()))]
        >= 0;
}

void
ChainClaimer::setEndpointReserved(const Coord &c, bool reserved)
{
    int sentinel = reserved_[static_cast<size_t>(
        linearIndex(c, mesh_.width()))];
    if (sentinel < 0)
        return;
    network::Path node;
    node.nodes.push_back(c);
    // The terminal may be engaged in another live chain (two
    // commuting ops can share a qubit): only the sentinel's own
    // hold is suspended or restored, never a chain's.
    if (reserved) {
        if (mesh_.nodeOwner(c) == network::Mesh::no_owner)
            mesh_.claim(node, sentinel);
    } else if (mesh_.nodeOwner(c) == sentinel) {
        mesh_.release(node, sentinel);
    }
}

std::optional<network::Path>
ChainClaimer::tryClaim(const network::Path &primary,
                       const network::Path &fallback, int owner,
                       int wait)
{
    const Coord &src = primary.source();
    const Coord &dst = primary.dest();
    int s = mesh_.nodeResource(src);
    int d = mesh_.nodeResource(dst);
    return escalate(
        owner, src, dst, wait, false,
        [&](bool second) -> const network::Path & {
            return second ? fallback : primary;
        },
        // The attempt suspends its own endpoints' reservations.
        [&](int resource, int holder) {
            return (resource == s || resource == d)
                && holder == reserved_[static_cast<size_t>(resource)];
        },
        // The two merged patches are part of the chain, but stay
        // opaque to every other chain.
        [&](bool suspend) {
            setEndpointReserved(src, !suspend);
            setEndpointReserved(dst, !suspend);
        });
}

void
ChainClaimer::release(const network::Path &chain, int owner)
{
    mesh_.release(chain, owner);
    setEndpointReserved(chain.source(), true);
    setEndpointReserved(chain.dest(), true);
}

void
MagicFactoryPool::consume(int f)
{
    if (!limited() || f < 0)
        return;
    auto &stock = stock_[static_cast<size_t>(f)];
    panicIf(stock <= 0, "consumed magic state from empty factory");
    --stock;
}

LiveIntervalProfile::Summary
LiveIntervalProfile::summarize(uint64_t total_cycles) const
{
    std::vector<std::pair<uint64_t, int>> deltas = deltas_;
    std::sort(deltas.begin(), deltas.end());

    Summary out;
    int64_t live = 0;
    uint64_t prev_time = 0;
    double live_cycles = 0;
    for (const auto &[time, delta] : deltas) {
        live_cycles += static_cast<double>(live)
                     * static_cast<double>(time - prev_time);
        prev_time = time;
        live += delta;
        out.peak = std::max(
            out.peak,
            static_cast<uint64_t>(std::max<int64_t>(0, live)));
    }
    out.average = total_cycles
        ? live_cycles / static_cast<double>(total_cycles)
        : 0.0;
    return out;
}

} // namespace qsurf::engine
