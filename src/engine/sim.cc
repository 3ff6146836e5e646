#include "engine/sim.h"

#include <algorithm>

#include "common/logging.h"
#include "network/route.h"

namespace qsurf::engine {

std::optional<network::Path>
RouteClaimer::tryClaim(const Coord &src, const Coord &dst, int owner,
                       int wait, bool yx_first)
{
    network::Path first = yx_first ? network::yxRoute(src, dst)
                                   : network::xyRoute(src, dst);
    if (mesh_.tryClaim(first, owner))
        return first;
    if (wait >= opts_.adapt_timeout) {
        network::Path second = yx_first ? network::xyRoute(src, dst)
                                        : network::yxRoute(src, dst);
        if (mesh_.tryClaim(second, owner)) {
            ++transpose_fallbacks_;
            return second;
        }
    }
    if (wait >= opts_.bfs_timeout) {
        auto detour =
            network::adaptiveRoute(mesh_, src, dst, owner, scratch_);
        if (detour) {
            ++bfs_detours_;
            mesh_.claim(*detour, owner);
            return detour;
        }
    }
    return std::nullopt;
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

    // Suspend the endpoint reservations: the two merged patches are
    // part of the chain, but stay opaque to every other chain.
    setEndpointReserved(src, false);
    setEndpointReserved(dst, false);

    if (mesh_.tryClaim(primary, owner))
        return primary;
    if (wait >= opts_.adapt_timeout
        && mesh_.tryClaim(fallback, owner)) {
        ++transpose_fallbacks_;
        return fallback;
    }
    if (wait >= opts_.bfs_timeout) {
        auto detour =
            network::adaptiveRoute(mesh_, src, dst, owner, scratch_);
        if (detour) {
            ++bfs_detours_;
            mesh_.claim(*detour, owner);
            return detour;
        }
    }

    setEndpointReserved(src, true);
    setEndpointReserved(dst, true);
    return std::nullopt;
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
