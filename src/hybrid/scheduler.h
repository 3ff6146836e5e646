/**
 * @file
 * Mixed-scheme scheduling: braid tracks, EPR-teleport channels and
 * merge/split chains on *one* shared patch machine, with the
 * communication scheme chosen per operation by a pluggable Arbiter.
 *
 * The machine is the lattice-surgery patch grid (surgery::PatchArch):
 * logical qubits live in planar patches, and the corridor fabric
 * between patches carries both defect tracks and merge/split chains.
 * The two mesh-borne schemes claim corridors through one
 * engine::ChainClaimer, so a braid track and a surgery corridor
 * contend for the same nodes and links — they congest against each
 * other exactly as they would on real hardware — while teleports
 * ride an off-mesh swap-channel overlay (engine::ChannelPool) that
 * is bandwidth-limited but never blocks on corridor ownership.
 *
 * Per-scheme occupancy asymmetry (the paper's Table 2 tradeoff):
 *
 *  - a braid track holds its corridor 2d+2 cycles regardless of
 *    length (fast movement, exclusive);
 *  - a merge/split chain holds its corridor rounds_per_hop * d
 *    cycles *per tile* (cheapest adjacent, worst over length);
 *  - a teleport pays tiles * swap_hop_cycles of transport plus the
 *    fixed teleport cost, queued on the channel overlay
 *    (prefetch-friendly, distance-sensitive, off-mesh).
 *
 * The simulator is a policy over engine::ListScheduler (the ready
 * queue, placement pass, drop/re-inject, fast-forward and
 * retirement shared with the braid and surgery schedulers; every
 * scheme retires through its one expiry queue).  It supplies the
 * per-op arbitration, the teleport path on a ChannelPool and the
 * drop-time teleport fallback, so runs are bit-identical for a
 * fixed (circuit, options) at any sweep thread count and with
 * fast-forward on or off.
 */

#ifndef QSURF_HYBRID_SCHEDULER_H
#define QSURF_HYBRID_SCHEDULER_H

#include <cstdint>

#include "circuit/circuit.h"
#include "engine/list_scheduler.h"
#include "hybrid/arbiter.h"
#include "partition/layout.h"
#include "surgery/patch_arch.h"

namespace qsurf::hybrid {

/** Simulation knobs (the shared ones are engine::ListOptions;
 *  drop_timeout is also the congestion-reactive arbiter's
 *  teleport-fallback trigger). */
struct HybridOptions : engine::ListOptions
{
    /** Scheme arbitration policy. */
    ArbiterKind arbiter = ArbiterKind::CostGreedy;

    /** Merge + split rounds per chain tile (surgery cost). */
    double rounds_per_hop = 2.0;

    /** Swap-chain latency per patch-tile hop, in cycles. */
    double swap_hop_cycles = 5.0;

    /** Braid open/close overhead per CNOT (braid cost). */
    double braid_overhead_cycles = 2.0;

    /** Fixed teleport cost once the EPR halves are resident
     *  (estimate::ModelConstants::teleport_cycles; rounded to whole
     *  cycles when the simulator schedules completions). */
    double teleport_overhead_cycles = 3.0;

    /**
     * Mesh load fraction where exclusive corridors saturate (the
     * arbiter's congestion-inflation knee; estimate::
     * ModelConstants::dd_max_utilization).
     */
    double mesh_saturation = 0.08;

    /**
     * Concurrent EPR transports the channel overlay sustains; 0
     * sizes it from the machine (patch-grid width + height).
     */
    int epr_bandwidth = 0;

    /** Data patches per magic-state factory patch. */
    int patches_per_factory = 8;

    /** Use the interaction-aware layout. */
    bool optimized_layout = true;

    /** Patch-layout objective (shared with the surgery backend:
     *  corridor-aware refinement and optional dedicated lanes). */
    partition::LayoutObjective layout_objective =
        partition::LayoutObjective::BraidManhattan;

    /** Patch rows/columns between dedicated ancilla lanes. */
    int lane_spacing = 4;

    /** Cost penalty per unit of per-route defect exposure on the
     *  mesh-borne schemes (ArbiterCosts::defect_penalty). */
    double defect_penalty = 2.0;
};

/** Results of one hybrid-scheduling run.  The critical path prices
 *  every op at its cheapest allowed scheme, uncontended. */
struct HybridResult : engine::ListResult
{
    /** Peak simultaneously claimed mesh links. */
    uint64_t peak_busy_links = 0;

    /** Ops routed per scheme (the scheme-choice histogram). */
    uint64_t braid_ops = 0;
    uint64_t teleport_ops = 0;
    uint64_t surgery_ops = 0;

    /** Patch-local 1-qubit ops (no communication). */
    uint64_t local_ops = 0;

    /** Dropped ops the reactive arbiter re-routed to teleport. */
    uint64_t arbiter_fallbacks = 0;

    /** Placements that needed the transposed corridor. */
    uint64_t transpose_fallbacks = 0;

    /** Peak live (launched, unconsumed) EPR pairs. */
    uint64_t peak_live_eprs = 0;

    /** Time-averaged live EPR pairs. */
    double avg_live_eprs = 0;

    /** Interaction-weighted corridor cost (around-patch tiles). */
    double corridor_cost = 0;

    /** Mesh area relative to the lane-free machine (>= 1). */
    double lane_area_factor = 1;

    /** @return communicating ops (braid + teleport + surgery). */
    uint64_t
    commOps() const
    {
        return braid_ops + teleport_ops + surgery_ops;
    }
};

/**
 * @return the PatchArchOptions @p opts resolves to — field-for-field
 * the same mapping as surgery::patchArchOptions, which is what lets
 * the hybrid and surgery backends share one cached
 * surgery::PatchPrepared artifact.
 */
surgery::PatchArchOptions patchArchOptions(const HybridOptions &opts);

/**
 * Simulate mixed-scheme scheduling of @p circ (which must already
 * be decomposed to Clifford+T).
 */
HybridResult scheduleHybrid(const circuit::Circuit &circ,
                            const HybridOptions &opts = {});

/**
 * Same simulation, reusing @p prepared (built for this circuit with
 * patchArchOptions(opts)); bit-identical to the inline path.
 */
HybridResult scheduleHybrid(const circuit::Circuit &circ,
                            const HybridOptions &opts,
                            const surgery::PatchPrepared &prepared);

} // namespace qsurf::hybrid

#endif // QSURF_HYBRID_SCHEDULER_H
