/**
 * @file
 * Braid scheduling via message passing (Sections 6.1 and 6.3).
 *
 * The 3-D space-time braid volume is overconstrained to a 2-D
 * circuit-switched routing problem: each 2-qubit logical operation
 * becomes two braid segments (Figure 5's part 1 / part 2) that claim
 * an entire route atomically, hold it for d stabilization cycles and
 * release it; each T gate becomes one braid to a magic-state factory
 * tile.  A dependence-driven ready queue issues braids greedily each
 * cycle; the priority Policies 0-6 of Section 6.3 order the queue.
 *
 * The simulation discovers a static schedule that is replayed at
 * execution time, so the routing heuristics need not be deadlock- or
 * livelock-free (Section 6.1): a braid that cannot be placed simply
 * retries, adapts its route (XY -> YX -> breadth-first detour) and is
 * eventually dropped/re-injected at the back of the queue.
 *
 * That loop is engine::ListScheduler, shared with the surgery and
 * hybrid simulators; the braid scheduler supplies the Policy 0-6
 * queue key, the closing segment of a 2-qubit op and Policy 0's
 * one-op-at-a-time pass.
 */

#ifndef QSURF_BRAID_SCHEDULER_H
#define QSURF_BRAID_SCHEDULER_H

#include <cstdint>
#include <vector>

#include "braid/tiled_arch.h"
#include "circuit/circuit.h"
#include "circuit/dag.h"
#include "circuit/interaction.h"
#include "engine/list_scheduler.h"

namespace qsurf::braid {

/** The braid prioritization policies of Section 6.3. */
enum class Policy : int
{
    ProgramOrder = 0, ///< No optimization; events in program order.
    Interleave = 1,   ///< Events interleave; ops in program order.
    Layout = 2,       ///< Interleave + interaction-aware layout.
    Criticality = 3,  ///< + sort by highest criticality first.
    Length = 4,       ///< + sort by longest braid first.
    Type = 5,         ///< + sort closing braids before opening.
    Combined = 6,     ///< All of the above (see Section 6.3).
};

/** All policies in order, for sweeps. */
inline constexpr int num_policies = 7;

/** @return "Policy N". */
const char *policyName(Policy policy);

/** Simulation knobs (the shared ones are engine::ListOptions). */
struct BraidOptions : engine::ListOptions
{
    /** Data tiles per magic-state factory tile. */
    int tiles_per_factory = 8;
};

/** Results of one braid-scheduling run (one Figure 6 bar; ratio()
 *  is the blue bar, mesh_utilization the red curve). */
struct BraidResult : engine::ListResult
{
    /** Braid segments successfully placed. */
    uint64_t braids_placed = 0;

    /** Placements that needed the YX fallback. */
    uint64_t yx_fallbacks = 0;
};

/**
 * The expensive prepare artifact of braid scheduling: everything the
 * simulator derives from the circuit and the seeded layout alone —
 * the dependence DAG, the interaction graph, the tiled machine and
 * the per-gate criticality.  Immutable once built and shared across
 * concurrent runs; scheduleBraids() handed one skips straight to the
 * cycle loop, and building it inline is bit-identical.
 */
struct BraidPrepared
{
    circuit::Dag dag;
    circuit::InteractionGraph graph;
    TiledArch arch;
    std::vector<int> crit;

    BraidPrepared(const circuit::Circuit &circ,
                  const TiledArchOptions &arch_opts);
};

/**
 * @return the TiledArchOptions (@p policy, @p opts) resolve to — the
 * layout inputs a cached BraidPrepared must have been built with
 * (Policies 2+ use the interaction-aware layout).
 */
TiledArchOptions braidArchOptions(Policy policy,
                                  const BraidOptions &opts);

/**
 * Dependence-limited critical path of @p circ in braid cycles, using
 * the same latency model as the simulator: 1-qubit ops d, T gates
 * d+1 (factory braid), 2-qubit ops 2d+2 (two braid segments).
 */
uint64_t braidCriticalPath(const circuit::Circuit &circ, int d);

/**
 * Simulate braid scheduling of @p circ (which must already be
 * decomposed to Clifford+T) under @p policy.
 */
BraidResult scheduleBraids(const circuit::Circuit &circ, Policy policy,
                           const BraidOptions &opts = {});

/**
 * Same simulation, reusing @p prepared (built for this circuit with
 * braidArchOptions(policy, opts)); bit-identical to the inline path.
 */
BraidResult scheduleBraids(const circuit::Circuit &circ, Policy policy,
                           const BraidOptions &opts,
                           const BraidPrepared &prepared);

} // namespace qsurf::braid

#endif // QSURF_BRAID_SCHEDULER_H
