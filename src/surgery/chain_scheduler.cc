#include "surgery/chain_scheduler.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace qsurf::surgery {

namespace {

using engine::OpClass;

/**
 * Lattice surgery as a list-scheduling policy: an op claims the
 * corridor to its partner (or a factory patch) and holds it for the
 * whole merge/split chain.
 */
class SurgeryScheduler final
    : public engine::ListScheduler<SurgeryScheduler, PatchArch,
                                   engine::ChainClaimer>
{
  public:
    SurgeryScheduler(const circuit::Circuit &circ,
                     const SurgeryOptions &opts,
                     const PatchPrepared &prep)
        : ListScheduler(circ, opts, prep, "surgery"), opts(opts),
          corridors(arch)
    {
    }

    SurgeryResult
    run()
    {
        SurgeryResult out;
        simulate(out);
        out.chains_placed = chains_placed;
        out.transpose_fallbacks = claimer.transposeFallbacks();
        out.total_chain_tiles = total_chain_tiles;
        out.max_chain_tiles = max_chain_tiles;
        auto live = live_chains.summarize(cycle);
        out.peak_live_chains = live.peak;
        out.avg_live_chains = live.average;
        out.corridor_cost = arch.corridorCost(graph);
        out.lane_area_factor = arch.laneAreaFactor();
        return out;
    }

    // Policy hooks (see engine/list_scheduler.h).

    Coord site(int32_t q) const { return arch.patchOf(q); }

    Coord factorySite(int f) const { return arch.factoryPatch(f); }

    std::optional<network::Path>
    claim(int i, const Coord &src, const Coord &dst)
    {
        const CorridorRouter::Routes &routes = corridors.routes(src, dst);
        return claimer.tryClaim(routes.primary, routes.fallback, i,
                                ops[static_cast<size_t>(i)].wait);
    }

    /** One cycle to turn the boundary measurements on, then the
     *  merge/split rounds across the whole corridor. */
    engine::Hold
    hold(int i, const network::Path &chain)
    {
        int tiles = PatchArch::chainTiles(chain.hops());
        auto span = static_cast<uint64_t>(tiles);
        ++chains_placed;
        total_chain_tiles += span;
        max_chain_tiles = std::max(max_chain_tiles, span);
        uint64_t duration = chainCycles(opts.rounds_per_hop,
                                        opts.code_distance, tiles)
            + 1;
        live_chains.add(cycle, cycle + duration);
        return {duration,
                ops[static_cast<size_t>(i)].cls == OpClass::TGate
                    ? 1
                    : 2,
                tiles};
    }

    /** Ideal chain: rounds_per_hop * d per tile of the shortest
     *  corridor, plus the cycle that opens it. */
    uint64_t
    latency(const Op &op) const
    {
        if (op.cls == OpClass::Local)
            return static_cast<uint64_t>(opts.code_distance);
        return chainCycles(opts.rounds_per_hop, opts.code_distance,
                           op.est)
            + 1;
    }

  private:
    const SurgeryOptions &opts;
    CorridorRouter corridors;
    engine::LiveIntervalProfile live_chains;
    uint64_t chains_placed = 0;
    uint64_t total_chain_tiles = 0;
    uint64_t max_chain_tiles = 0;
};

} // namespace

uint64_t
chainCycles(double rounds_per_hop, int code_distance, int tiles)
{
    return static_cast<uint64_t>(std::llround(
        rounds_per_hop * static_cast<double>(code_distance)
        * static_cast<double>(std::max(1, tiles))));
}

PatchArchOptions
patchArchOptions(const SurgeryOptions &opts)
{
    PatchArchOptions a;
    a.patches_per_factory = opts.patches_per_factory;
    a.optimized_layout = opts.optimized_layout;
    a.layout_objective = opts.layout_objective;
    a.lane_spacing = opts.lane_spacing;
    a.seed = opts.seed;
    a.defects = opts.defects;
    return a;
}

SurgeryResult
scheduleSurgery(const circuit::Circuit &circ,
                const SurgeryOptions &opts)
{
    fatalIf(circ.empty(), "cannot schedule an empty circuit");
    PatchPrepared prepared(circ, patchArchOptions(opts));
    return scheduleSurgery(circ, opts, prepared);
}

SurgeryResult
scheduleSurgery(const circuit::Circuit &circ,
                const SurgeryOptions &opts,
                const PatchPrepared &prepared)
{
    fatalIf(circ.empty(), "cannot schedule an empty circuit");
    fatalIf(opts.code_distance < 1, "code distance must be >= 1");
    fatalIf(opts.rounds_per_hop <= 0,
            "rounds_per_hop must be > 0, got ", opts.rounds_per_hop);
    return SurgeryScheduler(circ, opts, prepared).run();
}

} // namespace qsurf::surgery
