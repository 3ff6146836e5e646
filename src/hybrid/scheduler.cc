#include "hybrid/scheduler.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "surgery/chain_scheduler.h"
#include "surgery/patch_arch.h"

namespace qsurf::hybrid {

namespace {

using engine::OpClass;

/** Merge/split cost of a @p tiles-tile chain, in cycles (the
 *  surgery backend's formula, shared). */
uint64_t
chainCycles(const HybridOptions &opts, int tiles)
{
    return surgery::chainCycles(opts.rounds_per_hop,
                                opts.code_distance, tiles);
}

/** Corridor hold time of a braid track, length-insensitive. */
uint64_t
braidHold(const HybridOptions &opts, OpClass cls)
{
    auto d = static_cast<uint64_t>(opts.code_distance);
    if (cls == OpClass::TGate)
        return d + 1; // One segment: open + d rounds.
    return 2 * d
        + static_cast<uint64_t>(
               std::llround(opts.braid_overhead_cycles));
}

/** Swap-chain transport time of @p tiles patch hops, in cycles. */
uint64_t
transportCycles(const HybridOptions &opts, int tiles)
{
    return static_cast<uint64_t>(
        std::ceil(static_cast<double>(std::max(1, tiles))
                  * opts.swap_hop_cycles));
}

/** Teleport completion once transport lands: fixed cost + d. */
uint64_t
teleportTail(const HybridOptions &opts)
{
    return static_cast<uint64_t>(
               std::llround(opts.teleport_overhead_cycles))
        + static_cast<uint64_t>(opts.code_distance);
}

ArbiterCosts
makeCosts(const HybridOptions &opts)
{
    ArbiterCosts k;
    k.code_distance = opts.code_distance;
    k.rounds_per_hop = opts.rounds_per_hop;
    k.braid_overhead_cycles = opts.braid_overhead_cycles;
    k.teleport_cycles = opts.teleport_overhead_cycles;
    k.swap_hop_cycles = opts.swap_hop_cycles;
    k.mesh_saturation = opts.mesh_saturation;
    k.defect_penalty = opts.defect_penalty;
    return k;
}

/** Ideal (uncontended, unqueued) latency of one op per scheme. */
uint64_t
idealLatency(const HybridOptions &opts, Scheme scheme, OpClass cls,
             int tiles)
{
    switch (scheme) {
      case Scheme::Braid:
        return braidHold(opts, cls);
      case Scheme::Teleport:
        return transportCycles(opts, tiles) + teleportTail(opts);
      case Scheme::Surgery:
        return chainCycles(opts, tiles) + 1;
    }
    panic("bad Scheme");
}

/** The schemes @p kind may choose from. */
const std::vector<Scheme> &
allowedSchemes(ArbiterKind kind)
{
    static const std::vector<Scheme> braid_only{Scheme::Braid};
    static const std::vector<Scheme> teleport_only{Scheme::Teleport};
    static const std::vector<Scheme> surgery_only{Scheme::Surgery};
    static const std::vector<Scheme> all{
        Scheme::Braid, Scheme::Teleport, Scheme::Surgery};
    switch (kind) {
      case ArbiterKind::ForceBraid:
        return braid_only;
      case ArbiterKind::ForceTeleport:
        return teleport_only;
      case ArbiterKind::ForceSurgery:
        return surgery_only;
      default:
        return all;
    }
}

/** Cheapest allowed ideal latency of one op. */
uint64_t
bestIdealLatency(const HybridOptions &opts, OpClass cls, int tiles)
{
    uint64_t best = UINT64_MAX;
    for (Scheme s : allowedSchemes(opts.arbiter))
        best = std::min(best, idealLatency(opts, s, cls, tiles));
    return best;
}

/** The scheme decision of one op. */
struct SchemeChoice
{
    Scheme scheme = Scheme::Braid; ///< Valid when set.
    bool set = false;
};

/**
 * Mixed-scheme scheduling as a list-scheduling policy: each
 * communicating op is arbitrated to a braid track, a merge/split
 * chain (both claim corridors through the one claimer) or a
 * teleport on the channel overlay.
 */
class HybridScheduler final
    : public engine::ListScheduler<HybridScheduler, surgery::PatchArch,
                                   engine::ChainClaimer, SchemeChoice>
{
  public:
    HybridScheduler(const circuit::Circuit &circ,
                    const HybridOptions &opts,
                    const surgery::PatchPrepared &prep)
        : ListScheduler(circ, opts, prep, "hybrid"), opts(opts),
          corridors(arch),
          arbiter(makeArbiter(opts.arbiter, makeCosts(opts))),
          channels(opts.epr_bandwidth > 0
                       ? opts.epr_bandwidth
                       : arch.patchWidth() + arch.patchHeight())
    {
    }

    HybridResult
    run()
    {
        HybridResult out;
        simulate(out);
        out.peak_busy_links =
            static_cast<uint64_t>(mesh.peakBusyLinks());
        out.braid_ops = braid_ops;
        out.teleport_ops = teleport_ops;
        out.surgery_ops = surgery_ops;
        out.local_ops = local_ops;
        out.arbiter_fallbacks = arbiter_fallbacks;
        out.transpose_fallbacks = claimer.transposeFallbacks();
        auto live = live_eprs.summarize(cycle);
        out.peak_live_eprs = live.peak;
        out.avg_live_eprs = live.average;
        out.corridor_cost = arch.corridorCost(graph);
        out.lane_area_factor = arch.laneAreaFactor();
        return out;
    }

    // Policy hooks (see engine/list_scheduler.h).

    Coord site(int32_t q) const { return arch.patchOf(q); }

    Coord factorySite(int f) const { return arch.factoryPatch(f); }

    /**
     * The scheme is decided once per queue epoch (re-arbitrated
     * after a drop), from the machine state at the first attempt.
     * During a stall the mesh and channels are frozen, so a
     * per-attempt re-decision would answer identically — which is
     * what keeps fast-forward elision exact.
     */
    bool
    placeComm(int i)
    {
        Op &op = ops[static_cast<size_t>(i)];
        if (!op.state.set) {
            OpContext ctx = contextFor(op);
            op.state.scheme = arbiter->choose(ctx);
            op.state.set = true;
            if (trace)
                trace->record({cycle,
                               obs::EventKind::ArbiterDecision, i,
                               static_cast<int64_t>(op.state.scheme),
                               ctx.tiles});
        }
        return op.state.scheme == Scheme::Teleport ? placeTeleport(i)
                                                   : claimPath(i);
    }

    /** Braid tracks and surgery corridors contend for the same
     *  fabric through the one claimer. */
    std::optional<network::Path>
    claim(int i, const Coord &src, const Coord &dst)
    {
        const surgery::CorridorRouter::Routes &routes =
            corridors.routes(src, dst);
        return claimer.tryClaim(routes.primary, routes.fallback, i,
                                ops[static_cast<size_t>(i)].wait);
    }

    /** Hold the corridor for the scheme's occupancy time. */
    engine::Hold
    hold(int i, const network::Path &chain)
    {
        const Op &op = ops[static_cast<size_t>(i)];
        if (op.state.scheme == Scheme::Braid) {
            ++braid_ops;
            return {braidHold(opts, op.cls), 1};
        }
        ++surgery_ops;
        int tiles = surgery::PatchArch::chainTiles(chain.hops());
        return {chainCycles(opts, tiles) + 1, 3, tiles};
    }

    /** The cheapest allowed scheme's ideal latency. */
    uint64_t
    latency(const Op &op) const
    {
        if (op.cls == OpClass::Local)
            return static_cast<uint64_t>(opts.code_distance);
        return bestIdealLatency(opts, op.cls, op.est);
    }

    /** The congestion-reactive arbiter re-routes a dropped mesh op
     *  onto the teleport overlay; others re-arbitrate fresh. */
    void
    onDrop(int i)
    {
        SchemeChoice &choice = ops[static_cast<size_t>(i)].state;
        if (!choice.set || choice.scheme == Scheme::Teleport
            || !arbiter->fallbackToTeleport()) {
            choice.set = false;
            return;
        }
        choice.scheme = Scheme::Teleport;
        ++arbiter_fallbacks;
        if (trace)
            trace->record({cycle, obs::EventKind::ArbiterDecision, i,
                           static_cast<int64_t>(Scheme::Teleport),
                           ops[static_cast<size_t>(i)].est, 1});
    }

  private:
    /** The decision inputs of @p op right now. */
    OpContext
    contextFor(const Op &op) const
    {
        OpContext ctx;
        ctx.tiles = op.est;
        ctx.mesh_load = mesh.loadNow();
        ctx.channel_backlog = channels.earliestStart(cycle) - cycle;
        ctx.t_gate = op.cls == OpClass::TGate;
        // Under rate-limited production the state may have to come
        // from a farther, stocked factory — price the transport the
        // op would actually pay, not the ideal one.
        if (ctx.t_gate && factories.limited()) {
            int fac = firstStockedFactory(op.qa);
            if (fac >= 0)
                ctx.tiles = manhattan(arch.patchOf(op.qa),
                                      arch.factoryPatch(fac));
        }
        // Dead-tile fraction around the corridor: 0 on a perfect
        // fabric, so clean-machine arbitration is unchanged.
        ctx.defect_exposure = arch.defectExposure(
            op.qa, op.qb >= 0 ? op.qb : op.qa);
        return ctx;
    }

    /**
     * Teleport placement: consume a factory state for T gates,
     * queue the EPR halves on the channel overlay, and complete
     * after transport + teleport cost + d.  Never touches the mesh,
     * so the only way to fail is magic-state starvation.
     */
    bool
    placeTeleport(int i)
    {
        const Op &op = ops[static_cast<size_t>(i)];
        int tiles = op.est;
        if (op.cls == OpClass::TGate) {
            int fac = firstStockedFactory(op.qa);
            if (fac < 0)
                return starve(i);
            factories.consume(fac);
            tiles = manhattan(arch.patchOf(op.qa),
                              arch.factoryPatch(fac));
        }
        // An op re-arbitrated after a drop may have stalled on the
        // mesh first; its failure witnesses are no longer needed.
        claimer.forget(i);
        uint64_t transport = transportCycles(opts, tiles);
        uint64_t start = channels.acquire(cycle, transport);
        uint64_t arrival = start + transport;
        live_eprs.add(cycle, arrival);
        ++teleport_ops;
        uint64_t duration = arrival - cycle + teleportTail(opts);
        if (trace) {
            trace->record({cycle, obs::EventKind::TeleportChannel, i,
                           static_cast<int64_t>(start),
                           static_cast<int64_t>(arrival)});
            if (start > cycle)
                trace->record({cycle, obs::EventKind::TeleportStall,
                               i,
                               static_cast<int64_t>(start - cycle)});
            trace->record({cycle, obs::EventKind::OpIssue, i, 2,
                           static_cast<int64_t>(duration)});
        }
        activate(i, duration);
        return true;
    }

    /** @return the nearest factory with a state, or -1. */
    int
    firstStockedFactory(int32_t q) const
    {
        for (int fac : factory_order[static_cast<size_t>(q)])
            if (factories.hasState(fac))
                return fac;
        return -1;
    }

    const HybridOptions &opts;
    surgery::CorridorRouter corridors;
    std::unique_ptr<Arbiter> arbiter;
    engine::ChannelPool channels;
    engine::LiveIntervalProfile live_eprs;

    uint64_t braid_ops = 0;
    uint64_t teleport_ops = 0;
    uint64_t surgery_ops = 0;
    uint64_t arbiter_fallbacks = 0;
};

} // namespace

HybridResult
scheduleHybrid(const circuit::Circuit &circ, const HybridOptions &opts)
{
    fatalIf(circ.empty(), "cannot schedule an empty circuit");
    surgery::PatchPrepared prepared(circ,
                                    surgery::patchArchOptions(opts));
    return scheduleHybrid(circ, opts, prepared);
}

HybridResult
scheduleHybrid(const circuit::Circuit &circ, const HybridOptions &opts,
               const surgery::PatchPrepared &prepared)
{
    fatalIf(circ.empty(), "cannot schedule an empty circuit");
    fatalIf(opts.code_distance < 1, "code distance must be >= 1");
    fatalIf(opts.rounds_per_hop <= 0,
            "rounds_per_hop must be > 0, got ", opts.rounds_per_hop);
    fatalIf(opts.swap_hop_cycles <= 0,
            "swap_hop_cycles must be > 0, got ",
            opts.swap_hop_cycles);
    return HybridScheduler(circ, opts, prepared).run();
}

} // namespace qsurf::hybrid
