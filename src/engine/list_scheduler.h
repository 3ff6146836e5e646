/**
 * @file
 * The greedy list scheduler of Sections 6.1 and 6.3, shared by the
 * braid, lattice-surgery and hybrid simulators.
 *
 * One loop drives all three.  A dependence-driven ready queue holds
 * the ops whose predecessors retired, ordered by a priority key.
 * Each cycle a placement pass walks the queue best-first and tries
 * every op, up to max_attempts_per_cycle failures.  A stalled op
 * escalates its route (XY -> YX -> BFS detour, via the claimer) as
 * it waits, and one that waits drop_timeout cycles is dropped and
 * re-injected at the back of the queue.  A pass that places and
 * drops nothing is fast-forwarded over to the next event that can
 * change it, and retirement frees routes and readies successors.
 *
 * A scheduler derives from ListScheduler<Policy, ...> (CRTP) and
 * supplies only what differs between the schemes: how an op claims
 * a route and how long it holds it.  Every hook resolves at compile
 * time; there is no virtual call or std::function per attempt.
 *
 * Hooks every Policy defines:
 *  - site(q) and factorySite(f): the coordinates an op's ideal route
 *    length is measured in;
 *  - claim(i, src, dst): claim a route for op i, or nullopt;
 *  - hold(i, path): account a claimed route, return how it is held;
 *  - latency(op): the op's ideal latency, for the critical path.
 *
 * Hooks with a default here, which a Policy may redeclare:
 *  - readyKey(i): queue order (criticality, then shortest route);
 *  - placeComm(i): place a communicating op (claimPath(i));
 *  - placementPass(): one pass over the queue (greedyPass());
 *  - onDrop(i): extra work when op i is dropped (none);
 *  - requeueOnRetire(i): re-queue op i instead of retiring it
 *    (never).
 */

#ifndef QSURF_ENGINE_LIST_SCHEDULER_H
#define QSURF_ENGINE_LIST_SCHEDULER_H

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/dag.h"
#include "circuit/interaction.h"
#include "common/arena.h"
#include "common/geometry.h"
#include "common/logging.h"
#include "engine/sim.h"
#include "fabric/defect.h"
#include "network/mesh.h"
#include "obs/trace.h"

namespace qsurf::engine {

struct Metrics;
struct WorkItem;

/** The knobs every list scheduler shares. */
struct ListOptions
{
    /** Code distance d: cycles per stabilization round. */
    int code_distance = 5;

    /** Cycles an op waits before trying the transposed route. */
    int adapt_timeout = 4;

    /** Cycles before falling back to the adaptive BFS detour. */
    int bfs_timeout = 8;

    /** Cycles before the op is dropped and re-injected. */
    int drop_timeout = 16;

    /**
     * Cycles a factory needs to distill one magic state; 0 means
     * production is never the bottleneck (Section 4.3's factories
     * sized off the critical path).  Non-zero values make T gates
     * wait on supply, exposing the factory space-vs-time tradeoff.
     */
    int magic_production_cycles = 0;

    /** Distilled states a factory can buffer. */
    int magic_buffer_capacity = 2;

    /** Safety bound on simulated cycles. */
    uint64_t max_cycles = 100'000'000;

    /**
     * Event-driven time skipping: when a placement pass claims
     * nothing, jump straight to the next retirement, escalation
     * threshold or factory replenishment instead of ticking one
     * cycle at a time.  Results and trace events are bit-identical
     * either way; the cycle-stepped loop (false) is the correctness
     * oracle the fast-forward is checked against.
     */
    bool fast_forward = true;

    /** Layout RNG seed. */
    uint64_t seed = 1;

    /** Fabric damage recipe (see fabric/defect.h).  The default is
     *  the perfect mesh every run assumed before defect awareness. */
    fabric::DefectParams defects;

    /** Structured-event trace hook; null disables tracing (see
     *  obs/trace.h).  Never changes results. */
    obs::TraceRecorder *trace = nullptr;

    /** Set every field above from @p item's RunConfig, with the
     *  code distance resolved. */
    void fill(const WorkItem &item);
};

/** The results every list scheduler reports. */
struct ListResult
{
    /** Total cycles to complete the program. */
    uint64_t schedule_cycles = 0;

    /** Dependence-limited lower bound (each op at its ideal,
     *  uncontended latency). */
    uint64_t critical_path_cycles = 0;

    /** Average fraction of mesh links busy. */
    double mesh_utilization = 0;

    /** Failed placement attempts (route conflicts). */
    uint64_t placement_failures = 0;

    /** Placements that needed the BFS detour. */
    uint64_t bfs_detours = 0;

    /** Drop/re-inject events. */
    uint64_t drops = 0;

    /** T placements refused because no factory had a state ready. */
    uint64_t magic_starvations = 0;

    /** Interaction-weighted layout cost (Section 6.2 objective). */
    double layout_cost = 0;

    /** Cycles elided by the event-driven fast-forward. */
    uint64_t ff_skipped_cycles = 0;

    /** Fraction of fabric tiles dead (0 on a perfect fabric). */
    double defect_dead_fraction = 0;

    /** Mean per-tile error-rate multiplier over live tiles (1 on a
     *  perfect fabric). */
    double defect_avg_multiplier = 1;

    /** Permanently defective mesh routers. */
    uint64_t defective_nodes = 0;

    /** Permanently defective mesh links. */
    uint64_t defective_links = 0;

    /** @return schedule length / critical path. */
    double
    ratio() const
    {
        return critical_path_cycles
            ? static_cast<double>(schedule_cycles)
                / static_cast<double>(critical_path_cycles)
            : 0.0;
    }
};

/**
 * Set the metrics every list scheduler reports last, in row order:
 * the fast-forward counters, then (on a damaged fabric only, so
 * defect-free rows keep their shape) the defect statistics and the
 * logical error proxy.  @p m must already carry its code distance.
 */
void setListMetrics(Metrics &m, const ListResult &r,
                    const WorkItem &item);

/** How an op uses the machine. */
enum class OpClass : uint8_t
{
    Local, ///< 1-qubit non-T gate: tile-local, d cycles.
    TGate, ///< T/Tdag: one route to a magic-state factory.
    TwoQ,  ///< 2-qubit gate: one route between the operands.
};

/**
 * @return how @p g uses the machine; fatal for a gate of arity
 * above 2 (the @p scheduler must be handed a decomposed circuit).
 */
OpClass classifyOp(const circuit::Gate &g, const char *scheduler);

/**
 * Dependence-limited critical path over @p dag: every op starts when
 * its last predecessor finishes and takes latency(i) cycles.
 */
template <typename Latency>
uint64_t
criticalPath(const circuit::Dag &dag, Latency &&latency)
{
    std::vector<uint64_t, ArenaAllocator<uint64_t>> finish(
        static_cast<size_t>(dag.size()), 0);
    uint64_t best = 0;
    for (int i = 0; i < dag.size(); ++i) {
        uint64_t start = 0;
        for (int p : dag.preds(i))
            start = std::max(start, finish[static_cast<size_t>(p)]);
        uint64_t end = start + latency(i);
        finish[static_cast<size_t>(i)] = end;
        best = std::max(best, end);
    }
    return best;
}

/** The per-op state of a policy that keeps none of its own. */
struct NoOpState
{
};

/** One op of a list scheduler. */
template <typename OpState>
struct ListOp
{
    OpClass cls = OpClass::Local;
    /** Segment of a multi-segment op (braid's closing segment is
     *  1); reported as the OpReady stage. */
    uint8_t segment = 0;
    int32_t qa = -1;
    int32_t qb = -1;
    int pending_preds = 0;
    int wait = 0; ///< Cycles spent failing to place.
    int est = 0;  ///< Ideal route length, in the policy's sites.
    [[no_unique_address]] OpState state; ///< The policy's own.
    network::Path route; ///< Currently claimed route, if any.
};

/** How a placed route is held (Policy::hold's answer). */
struct Hold
{
    uint64_t duration = 0; ///< Cycles until the op retires.
    /** OpIssue lane: 1 T gate, 2 two-qubit op (the hybrid's 1 braid
     *  track, 3 merge/split chain). */
    int64_t lane = 0;
    int64_t chain_tiles = -1; ///< Merge/split tiles; -1 no chain.
};

/**
 * The list-scheduling skeleton.
 *
 * @tparam Policy  the scheduler deriving from this class.
 * @tparam Arch    its machine (terminal(), factoryTerminal(),
 *                 factoriesByDistance(), makeMesh(), ...).
 * @tparam Claimer its route claimer (RouteClaimer, ChainClaimer).
 * @tparam OpState per-op state the policy keeps in ListOp::state.
 */
template <typename Policy, typename Arch, typename Claimer,
          typename OpState = NoOpState>
class ListScheduler
{
  public:
    /** Failed placement attempts allowed per pass. */
    static constexpr int max_attempts_per_cycle = 64;

  protected:
    using Op = ListOp<OpState>;

    /**
     * @param prepared the policy's prepare artifact (dag, graph,
     *                 arch, crit), built for @p circ.
     * @param name     the scheduler's name, for error messages.
     */
    template <typename Prepared>
    ListScheduler(const circuit::Circuit &circ,
                  const ListOptions &opts, const Prepared &prepared,
                  const char *name)
        : circ(circ), opts(opts), name(name), dag(prepared.dag),
          graph(prepared.graph), arch(prepared.arch),
          mesh(arch.makeMesh()),
          claim_opts{opts.adapt_timeout, opts.bfs_timeout},
          claimer(mesh, claim_opts, circ.size()), crit(prepared.crit),
          trace(opts.trace)
    {
        if (trace) {
            trace->meshDims(mesh.width(), mesh.height());
            obs::traceMeshDefects(trace, mesh);
        }
        if constexpr (requires { arch.reservedTerminals(); })
            for (const Coord &terminal : arch.reservedTerminals())
                claimer.reserveTerminal(terminal);
        // Factory preference orders are a pure function of the
        // static layout; memoize them per qubit so a stalled T gate
        // doesn't re-sort the factory list every failed attempt.
        factory_order.resize(static_cast<size_t>(graph.num_qubits));
        for (int q = 0; q < graph.num_qubits; ++q)
            factory_order[static_cast<size_t>(q)] =
                arch.factoriesByDistance(q);
        factories.configure(arch.numFactories(),
                            opts.magic_production_cycles,
                            opts.magic_buffer_capacity);
        factories.setTrace(trace);
    }

    /** Run the program to completion; fill @p out's common fields. */
    void
    simulate(ListResult &out)
    {
        buildOps();
        for (int i = 0; i < circ.size(); ++i)
            if (ops[static_cast<size_t>(i)].pending_preds == 0)
                makeReady(i);
        uint64_t completed = 0;
        auto total = static_cast<uint64_t>(circ.size());
        while (completed < total) {
            fatalIf(cycle > opts.max_cycles, name,
                    " simulation exceeded ", opts.max_cycles,
                    " cycles; likely a configuration problem");
            factories.replenish(cycle);
            placementPhase();
            if (opts.fast_forward)
                fastForwardPhase();
            mesh.tick();
            ++cycle;
            completed += completionPhase();
        }

        out.schedule_cycles = cycle;
        out.critical_path_cycles = criticalPath(dag, [this](int i) {
            return self().latency(ops[static_cast<size_t>(i)]);
        });
        out.mesh_utilization = mesh.utilization();
        out.placement_failures = placement_failures;
        out.bfs_detours = claimer.bfsDetours();
        out.drops = drops;
        out.magic_starvations = magic_starvations;
        out.layout_cost = arch.layoutCost(graph);
        out.ff_skipped_cycles = ff.skipped();
        out.defect_dead_fraction = arch.defects().deadFraction();
        out.defect_avg_multiplier =
            arch.defects().avgErrorMultiplier();
        out.defective_nodes =
            static_cast<uint64_t>(mesh.numDefectiveNodes());
        out.defective_links =
            static_cast<uint64_t>(mesh.numDefectiveLinks());
    }

    // -------------------------------------------------- default hooks

    /** Criticality first (longest dependence tail), shortest route
     *  second: nothing releases early, so keep routes turning
     *  over. */
    ReadyEntry
    readyKey(int i) const
    {
        ReadyEntry e;
        e.id = i;
        e.k1 = -crit[static_cast<size_t>(i)];
        e.k2 = ops[static_cast<size_t>(i)].est;
        return e;
    }

    bool placeComm(int i) { return claimPath(i); }

    void placementPass() { greedyPass(); }

    void onDrop(int) {}

    bool requeueOnRetire(int) { return false; }

    // ------------------------------------------------ shared services

    /** Outcome of one placement attempt. */
    enum class Attempt
    {
        Placed,
        Failed,
        Dropped, ///< Failed and reached drop_timeout (wait is not
                 ///  reset; the caller decides).
    };

    /** Try to place op @p i once, accounting the outcome. */
    Attempt
    attempt(int i)
    {
        Op &op = ops[static_cast<size_t>(i)];
        int wait_used = op.wait;
        if (tryPlace(i)) {
            ++pass_placed;
            return Attempt::Placed;
        }
        ++placement_failures;
        attempted.push_back({i, wait_used});
        if (++op.wait < opts.drop_timeout)
            return Attempt::Failed;
        ++drops;
        ++pass_dropped;
        if (trace)
            trace->record({cycle, obs::EventKind::RouteDrop, i});
        return Attempt::Dropped;
    }

    /**
     * Greedy placement in queue order, up to max_attempts_per_cycle
     * failures; a dropped op re-enters at the back of its key.
     */
    void
    greedyPass()
    {
        int failures = 0;
        dropped_scratch.clear();
        auto it = ready.begin();
        while (it != ready.end()
               && failures < max_attempts_per_cycle) {
            int i = it->id;
            Attempt outcome = attempt(i);
            if (outcome == Attempt::Placed) {
                it = ready.erase(it);
                continue;
            }
            ++failures;
            if (outcome == Attempt::Dropped) {
                ops[static_cast<size_t>(i)].wait = 0;
                self().onDrop(i);
                it = ready.erase(it);
                dropped_scratch.push_back(i);
                continue;
            }
            ++it;
        }
        for (int i : dropped_scratch)
            ready.insert(self().readyKey(i));
    }

    /** Queue op @p i (its wait restarts). */
    void
    makeReady(int i)
    {
        Op &op = ops[static_cast<size_t>(i)];
        op.wait = 0;
        ready.insert(self().readyKey(i));
        if (trace)
            trace->record({cycle, obs::EventKind::OpReady, i,
                           op.segment});
    }

    /** Count a magic-state starvation of op @p i; @return false. */
    bool
    starve(int i)
    {
        ++magic_starvations;
        ++pass_starved;
        if (trace
            && obs::stallEventGate(ops[static_cast<size_t>(i)].wait,
                                   opts.adapt_timeout,
                                   opts.bfs_timeout))
            trace->record({cycle, obs::EventKind::FactoryStarve, i});
        return false;
    }

    /** Retire op @p i after @p duration cycles. */
    void
    activate(int i, uint64_t duration)
    {
        expiry.schedule(cycle + duration, i);
    }

    /**
     * Claim a route for communicating op @p i: to its partner, or
     * for a T gate to a stocked factory (nearest first, widening to
     * three once it waited adapt_timeout).  The route escalates in
     * Policy::claim; Policy::hold says how long it is held.
     */
    bool
    claimPath(int i)
    {
        Op &op = ops[static_cast<size_t>(i)];
        Coord src = arch.terminal(op.qa);
        // Candidate destinations: (terminal, factory index or -1).
        std::vector<std::pair<Coord, int>> &dsts = dsts_scratch;
        dsts.clear();
        if (op.cls == OpClass::TwoQ) {
            dsts.emplace_back(arch.terminal(op.qb), -1);
        } else if (!appendStockedFactories(
                       factories,
                       factory_order[static_cast<size_t>(op.qa)],
                       op.wait, opts.adapt_timeout, dsts,
                       [this](int f) {
                           return arch.factoryTerminal(f);
                       })) {
            return starve(i);
        }

        uint64_t transpose_before = 0;
        uint64_t bfs_before = 0;
        if (trace) {
            transpose_before = claimer.transposeFallbacks();
            bfs_before = claimer.bfsDetours();
        }
        for (const auto &[dst, factory] : dsts) {
            std::optional<network::Path> path =
                self().claim(i, src, dst);
            if (!path)
                continue;
            factories.consume(factory);
            if (trace) {
                int64_t stage = claimer.bfsDetours() != bfs_before ? 2
                    : claimer.transposeFallbacks() != transpose_before
                    ? 1
                    : 0;
                trace->record({cycle, obs::EventKind::RouteClaim, i,
                               stage, path->hops(), factory});
                if (stage > 0)
                    trace->record({cycle,
                                   obs::EventKind::RouteFallback, i,
                                   stage});
            }
            Hold hold = self().hold(i, *path);
            op.route = std::move(*path);
            if (trace) {
                if (hold.chain_tiles >= 0)
                    trace->record({cycle, obs::EventKind::ChainHold,
                                   i, hold.chain_tiles,
                                   static_cast<int64_t>(
                                       hold.duration)});
                trace->routeHeld(op.route, cycle, hold.duration);
                trace->record({cycle, obs::EventKind::OpIssue, i,
                               hold.lane,
                               static_cast<int64_t>(hold.duration)});
            }
            activate(i, hold.duration);
            return true;
        }
        if (trace
            && obs::stallEventGate(op.wait, opts.adapt_timeout,
                                   opts.bfs_timeout))
            trace->record(
                {cycle, obs::EventKind::RouteDeny, i, op.wait});
        return false;
    }

    // --------------------------------------------------------- state

    const circuit::Circuit &circ;
    const ListOptions &opts;
    const char *name;
    const circuit::Dag &dag;
    const circuit::InteractionGraph &graph;
    const Arch &arch;
    network::Mesh mesh;
    RouteClaimOptions claim_opts;
    Claimer claimer;
    MagicFactoryPool factories;

    std::vector<Op> ops;
    const std::vector<int> &crit;
    std::vector<std::vector<int>> factory_order; ///< Per qubit.
    ReadyQueue ready;
    ExpiryQueue expiry;
    FastForward ff;
    uint64_t cycle = 0;
    obs::TraceRecorder *trace;

    uint64_t placement_failures = 0;
    uint64_t drops = 0;
    uint64_t magic_starvations = 0;
    uint64_t local_ops = 0;

  private:
    Policy &self() { return static_cast<Policy &>(*this); }

    void
    buildOps()
    {
        ops.resize(static_cast<size_t>(circ.size()));
        for (int i = 0; i < circ.size(); ++i) {
            const circuit::Gate &g = circ.gate(i);
            Op &op = ops[static_cast<size_t>(i)];
            op.cls = classifyOp(g, name);
            op.qa = g.qubit[0];
            op.qb = g.arity() == 2 ? g.qubit[1] : -1;
            op.pending_preds = static_cast<int>(dag.preds(i).size());
            if (op.cls == OpClass::TwoQ)
                op.est = manhattan(self().site(op.qa),
                                   self().site(op.qb));
            else if (op.cls == OpClass::TGate)
                op.est = manhattan(
                    self().site(op.qa),
                    self().factorySite(
                        factory_order[static_cast<size_t>(op.qa)]
                            .front()));
        }
    }

    bool
    tryPlace(int i)
    {
        if (ops[static_cast<size_t>(i)].cls != OpClass::Local)
            return self().placeComm(i);
        ++local_ops;
        if (trace)
            trace->record({cycle, obs::EventKind::OpIssue, i, 0,
                           opts.code_distance});
        activate(i, static_cast<uint64_t>(opts.code_distance));
        return true;
    }

    void
    placementPhase()
    {
        pass_placed = 0;
        pass_dropped = 0;
        pass_starved = 0;
        attempted.clear();
        self().placementPass();
    }

    /**
     * When the pass above placed nothing (and dropped nothing, so
     * the ready queue kept its order), every iteration until the
     * next interesting event is a pure repetition: same failed
     * attempts, same starvations, wait counters +1 each.  Jump
     * there (the next retirement, a stalled op's escalation
     * threshold or a factory replenishment), accounting the elided
     * iterations in bulk.
     */
    void
    fastForwardPhase()
    {
        if (pass_placed > 0 || pass_dropped > 0)
            return;
        ff.begin(cycle);
        if (auto deadline = expiry.nextDeadline())
            ff.eventAt(*deadline);
        // A replenishment that raises a stock can change a T gate's
        // candidate factories.
        factories.registerEvents(ff);
        for (const auto &[i, wait_used] : attempted)
            ff.stalledOp(wait_used, ops[static_cast<size_t>(i)].wait,
                         claim_opts, opts.drop_timeout);
        uint64_t skip = ff.skippable(opts.max_cycles + 1);
        if (skip == 0)
            return;
        ff.recordSkip(skip);
        mesh.tick(skip);
        placement_failures +=
            static_cast<uint64_t>(attempted.size()) * skip;
        for (const auto &[i, wait_used] : attempted)
            ops[static_cast<size_t>(i)].wait += static_cast<int>(skip);
        if (trace)
            trace->record({cycle, obs::EventKind::FastForwardSkip, -1,
                           static_cast<int64_t>(skip)});
        cycle += skip;
        magic_starvations += pass_starved * skip;
    }

    /** Retire expired ops; @return the number completed. */
    uint64_t
    completionPhase()
    {
        uint64_t completed = 0;
        while (auto ripe = expiry.popRipe(cycle)) {
            int i = *ripe;
            Op &op = ops[static_cast<size_t>(i)];
            if (!op.route.empty()) {
                claimer.release(op.route, i);
                op.route = network::Path{};
            }
            if (self().requeueOnRetire(i))
                continue;
            ++completed;
            if (trace)
                trace->record({cycle, obs::EventKind::OpRetire, i});
            for (int s : dag.succs(i))
                if (--ops[static_cast<size_t>(s)].pending_preds == 0)
                    makeReady(s);
        }
        return completed;
    }

    /** Per-pass bookkeeping feeding fastForwardPhase(). */
    uint64_t pass_placed = 0;
    uint64_t pass_dropped = 0;
    uint64_t pass_starved = 0;
    std::vector<std::pair<int, int>> attempted; ///< (id, wait used).
    std::vector<int> dropped_scratch;
    std::vector<std::pair<Coord, int>> dsts_scratch;
};

} // namespace qsurf::engine

#endif // QSURF_ENGINE_LIST_SCHEDULER_H
