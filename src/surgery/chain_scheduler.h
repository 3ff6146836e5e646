/**
 * @file
 * Lattice-surgery chain scheduling (Section 8.2, simulated).
 *
 * Each 2-qubit logical operation becomes one merge/split chain: the
 * corridor of patches between the two operands is claimed
 * exclusively, the boundary syndromes stabilize for d cycles per
 * merge/split round, and the chain releases when the split
 * completes.  A chain across L patch tiles therefore holds its
 * whole corridor for ~rounds_per_hop * d * L cycles — unlike a
 * braid, whose route is claimed for d cycles regardless of length,
 * and unlike a teleport, whose EPR halves travel ahead of need.
 * T gates merge with a magic-state factory patch through the same
 * fabric.
 *
 * The simulator is a policy over engine::ListScheduler (the ready
 * queue, placement pass, drop/re-inject and fast-forward shared with
 * the braid and hybrid schedulers): it supplies only the corridor
 * claim, through the ChainClaimer's corridor-route escalation, and
 * the chain hold.  Runs are bit-identical for a fixed (circuit,
 * options) at any sweep thread count.
 */

#ifndef QSURF_SURGERY_CHAIN_SCHEDULER_H
#define QSURF_SURGERY_CHAIN_SCHEDULER_H

#include <cstdint>

#include "circuit/circuit.h"
#include "engine/list_scheduler.h"
#include "surgery/patch_arch.h"

namespace qsurf::surgery {

/**
 * The list-scheduler knobs of the patch machine, shared by the
 * surgery and hybrid simulators.  The patch-layout inputs both must
 * agree on to share one PatchPrepared artifact are declared here
 * once.
 */
struct PatchListOptions : engine::ListOptions
{
    /** Data patches per magic-state factory patch. */
    int patches_per_factory = 8;

    /** Use the interaction-aware layout. */
    bool optimized_layout = true;

    /** Patch-layout objective (refines the bisection seed against
     *  the corridor metric; CorridorLanes also reserves dedicated
     *  ancilla lanes in the mesh). */
    partition::LayoutObjective layout_objective =
        partition::LayoutObjective::BraidManhattan;

    /** Patch rows/columns between dedicated ancilla lanes. */
    int lane_spacing = 4;

    /** ListOptions::fill(), plus the patch layout of @p item's
     *  RunConfig: Policies 2+ use the interaction-aware layout (the
     *  braid backend's convention), with the configured objective
     *  and lane spacing. */
    void fill(const engine::WorkItem &item);
};

/** Simulation knobs (the shared ones are PatchListOptions). */
struct SurgeryOptions : PatchListOptions
{
    /** Merge + split rounds per chain tile (2 = one merge + one
     *  split), matching estimate::SurgeryConstants. */
    double rounds_per_hop = 2.0;
};

/** Results of one chain-scheduling run. */
struct SurgeryResult : engine::ListResult
{
    /** Merge/split chains successfully placed. */
    uint64_t chains_placed = 0;

    /** Placements that needed the transposed corridor. */
    uint64_t transpose_fallbacks = 0;

    /** Sum of chain lengths, in patch tiles. */
    uint64_t total_chain_tiles = 0;

    /** Longest chain placed, in patch tiles. */
    uint64_t max_chain_tiles = 0;

    /** Peak simultaneously-live chains. */
    uint64_t peak_live_chains = 0;

    /** Time-averaged live chains. */
    double avg_live_chains = 0;

    /** Interaction-weighted corridor cost (around-patch tiles). */
    double corridor_cost = 0;

    /** Mesh area relative to the lane-free machine (>= 1; the
     *  ancilla space the dedicated lanes cost). */
    double lane_area_factor = 1;
};

/**
 * @return the merge/split cost of a chain across @p tiles patch
 * tiles, in cycles: rounds_per_hop boundary-stabilization rounds of
 * d cycles per tile.  The one formula both the pure surgery
 * scheduler and the hybrid backend's surgery arm price and hold
 * corridors with.
 */
uint64_t chainCycles(double rounds_per_hop, int code_distance,
                     int tiles);

/**
 * @return the PatchArchOptions @p opts resolves to: the layout
 * inputs a cached PatchPrepared must have been built with.  The
 * surgery and hybrid simulators both map their options through it,
 * which is what lets the two backends share one artifact.
 */
PatchArchOptions patchArchOptions(const PatchListOptions &opts);

/**
 * Simulate lattice-surgery scheduling of @p circ (which must
 * already be decomposed to Clifford+T).
 */
SurgeryResult scheduleSurgery(const circuit::Circuit &circ,
                              const SurgeryOptions &opts = {});

/**
 * Same simulation, reusing @p prepared (built for this circuit with
 * patchArchOptions(opts)); bit-identical to the inline path.
 */
SurgeryResult scheduleSurgery(const circuit::Circuit &circ,
                              const SurgeryOptions &opts,
                              const PatchPrepared &prepared);

} // namespace qsurf::surgery

#endif // QSURF_SURGERY_CHAIN_SCHEDULER_H
