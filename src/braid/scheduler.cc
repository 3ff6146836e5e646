#include "braid/scheduler.h"

#include <algorithm>
#include <vector>

#include "circuit/schedule.h"
#include "common/logging.h"

namespace qsurf::braid {

const char *
policyName(Policy policy)
{
    static const char *names[num_policies] = {
        "Policy 0", "Policy 1", "Policy 2", "Policy 3",
        "Policy 4", "Policy 5", "Policy 6",
    };
    auto i = static_cast<size_t>(policy);
    panicIf(i >= num_policies, "bad policy ", static_cast<int>(policy));
    return names[i];
}

namespace {

using engine::OpClass;

/** Uncontended cycles of an op of class @p cls at distance @p d:
 *  1-qubit ops d, T gates d+1 (one factory braid), 2-qubit ops
 *  2d+2 (two braid segments). */
uint64_t
opLatency(OpClass cls, int d)
{
    auto cycles = static_cast<uint64_t>(d);
    switch (cls) {
      case OpClass::Local:
        return cycles;
      case OpClass::TGate:
        return cycles + 1;
      case OpClass::TwoQ:
        return 2 * cycles + 2;
    }
    panic("bad OpClass");
}

/**
 * Braid scheduling as a list-scheduling policy: a 2-qubit op is two
 * braid segments that each claim a whole route and hold it d + 1
 * cycles, a T gate one braid to a factory.  The Policy 0-6 key
 * orders the queue, and Policy 0 places one op at a time.
 */
class BraidScheduler final
    : public engine::ListScheduler<BraidScheduler, TiledArch,
                                   engine::RouteClaimer>
{
  public:
    BraidScheduler(const circuit::Circuit &circ, Policy policy,
                   const BraidOptions &opts,
                   const BraidPrepared &prep)
        : ListScheduler(circ, opts, prep, "braid"), policy(policy)
    {
        // Policy 6 treats the top criticality quartile as "highest
        // criticality" (short-first); the rest go long-first.
        std::vector<int> sorted_crit = crit;
        std::sort(sorted_crit.begin(), sorted_crit.end());
        crit_threshold = sorted_crit.empty()
            ? 0
            : sorted_crit[sorted_crit.size() * 3 / 4];
    }

    BraidResult
    run()
    {
        BraidResult out;
        simulate(out);
        out.braids_placed = braids_placed;
        out.yx_fallbacks = claimer.transposeFallbacks();
        return out;
    }

    // Policy hooks (see engine/list_scheduler.h).

    Coord site(int32_t q) const { return arch.terminal(q); }

    Coord factorySite(int f) const { return arch.factoryTerminal(f); }

    /** The Section 6.3 sort key of op @p i. */
    engine::ReadyEntry
    readyKey(int i) const
    {
        const Op &op = ops[static_cast<size_t>(i)];
        int c = crit[static_cast<size_t>(i)];
        engine::ReadyEntry e;
        e.id = i;
        bool closing = op.segment == 1;
        switch (policy) {
          case Policy::ProgramOrder:
          case Policy::Interleave:
          case Policy::Layout:
            // FIFO by readiness.
            break;
          case Policy::Criticality:
            e.k1 = -c;
            break;
          case Policy::Length:
            e.k1 = -op.est;
            break;
          case Policy::Type:
            e.k1 = closing ? 0 : 1;
            break;
          case Policy::Combined:
            e.k1 = closing ? 0 : 1;
            e.k2 = -c;
            e.k3 = c >= crit_threshold
                ? op.est   // highest criticality: short first.
                : -op.est; // lower criticality: long first.
            break;
        }
        return e;
    }

    /** Figure 5: the two segments take different geometries; part 1
     *  opens XY-first and part 2 YX-first. */
    std::optional<network::Path>
    claim(int i, const Coord &src, const Coord &dst)
    {
        const Op &op = ops[static_cast<size_t>(i)];
        return claimer.tryClaim(src, dst, i, op.wait,
                                op.segment == 1);
    }

    /** Braid open consumes one cycle, then d stabilization rounds. */
    engine::Hold
    hold(int i, const network::Path &)
    {
        ++braids_placed;
        return {static_cast<uint64_t>(opts.code_distance) + 1,
                ops[static_cast<size_t>(i)].cls == OpClass::TGate
                    ? 1
                    : 2};
    }

    uint64_t
    latency(const Op &op) const
    {
        return opLatency(op.cls, opts.code_distance);
    }

    /**
     * Policy 0: only the program-order-next event may start, at most
     * one per cycle; nothing may bypass a blocked event.
     */
    void
    placementPass()
    {
        if (policy != Policy::ProgramOrder) {
            greedyPass();
            return;
        }
        auto head = ready.end();
        for (auto it = ready.begin(); it != ready.end(); ++it)
            if (head == ready.end() || it->id < head->id)
                head = it;
        if (head == ready.end())
            return;
        int i = head->id;
        Attempt outcome = attempt(i);
        if (outcome == Attempt::Placed)
            ready.erase(head);
        else if (outcome == Attempt::Dropped)
            // Dropping is meaningless under strict order; keep the
            // route-adaptivity escalation armed and count the event.
            ops[static_cast<size_t>(i)].wait = opts.bfs_timeout;
    }

    /** A 2-qubit op's opening segment retiring readies its closing
     *  segment instead of completing the op. */
    bool
    requeueOnRetire(int i)
    {
        Op &op = ops[static_cast<size_t>(i)];
        if (op.cls != OpClass::TwoQ || op.segment != 0)
            return false;
        op.segment = 1;
        makeReady(i);
        return true;
    }

  private:
    Policy policy;
    int crit_threshold = 0;
    uint64_t braids_placed = 0;
};

} // namespace

uint64_t
braidCriticalPath(const circuit::Circuit &circ, int d)
{
    fatalIf(d < 1, "code distance must be >= 1, got ", d);
    circuit::Dag dag(circ);
    return engine::criticalPath(dag, [&](int i) {
        return opLatency(engine::classifyOp(circ.gate(i), "braid"), d);
    });
}

BraidPrepared::BraidPrepared(const circuit::Circuit &circ,
                             const TiledArchOptions &arch_opts)
    : dag(circ), graph(circuit::interactionGraph(circ)),
      arch(graph, arch_opts), crit(circuit::criticality(dag))
{
}

TiledArchOptions
braidArchOptions(Policy policy, const BraidOptions &opts)
{
    TiledArchOptions a;
    a.tiles_per_factory = opts.tiles_per_factory;
    a.optimized_layout = static_cast<int>(policy) >= 2;
    a.seed = opts.seed;
    a.defects = opts.defects;
    return a;
}

BraidResult
scheduleBraids(const circuit::Circuit &circ, Policy policy,
               const BraidOptions &opts)
{
    fatalIf(circ.empty(), "cannot schedule an empty circuit");
    BraidPrepared prepared(circ, braidArchOptions(policy, opts));
    return scheduleBraids(circ, policy, opts, prepared);
}

BraidResult
scheduleBraids(const circuit::Circuit &circ, Policy policy,
               const BraidOptions &opts, const BraidPrepared &prepared)
{
    fatalIf(circ.empty(), "cannot schedule an empty circuit");
    fatalIf(opts.code_distance < 1, "code distance must be >= 1");
    return BraidScheduler(circ, policy, opts, prepared).run();
}

} // namespace qsurf::braid
