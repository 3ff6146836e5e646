/**
 * @file
 * Shared simulation primitives of the backend engines.
 *
 * Both run-to-completion backends are discrete simulators built from
 * the same small set of mechanisms: a deterministic keyed ready
 * queue, an expiry queue retiring in-flight work, the route-claim
 * escalation of Section 6.1 on the circuit-switched mesh, a pool of
 * identical transport channels, and sweep-line accounting of live
 * resources.  Hoisting them here keeps the braid and planar
 * schedulers to their policy decisions and guarantees every backend
 * shares the same deterministic tie-breaking, which is what makes
 * parallel sweeps bit-identical at any thread count.
 */

#ifndef QSURF_ENGINE_SIM_H
#define QSURF_ENGINE_SIM_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <queue>
#include <set>
#include <vector>

#include "common/arena.h"
#include "network/mesh.h"
#include "network/route.h"
#include "obs/trace.h"

namespace qsurf::engine {

/**
 * Sort key of one ready item; smaller sorts first.  The three major
 * keys express a backend's priority policy; the insertion sequence
 * number (stamped by ReadyQueue) breaks all remaining ties FIFO, so
 * iteration order never depends on memory layout or hashing.
 */
struct ReadyEntry
{
    int64_t k1 = 0;
    int64_t k2 = 0;
    int64_t k3 = 0;
    uint64_t seq = 0; ///< Insertion order; stamped by ReadyQueue.
    int id = 0;       ///< Backend-defined item id; last tie-break.

    friend bool
    operator<(const ReadyEntry &a, const ReadyEntry &b)
    {
        if (a.k1 != b.k1)
            return a.k1 < b.k1;
        if (a.k2 != b.k2)
            return a.k2 < b.k2;
        if (a.k3 != b.k3)
            return a.k3 < b.k3;
        if (a.seq != b.seq)
            return a.seq < b.seq;
        return a.id < b.id;
    }
};

/**
 * Priority-ordered ready queue with deterministic FIFO tie-breaking.
 * Iteration yields entries best-first; erase/insert during a scan
 * follows std::set iterator rules.  Node storage comes from the
 * thread's scratch arena when one is bound at construction (every
 * insert is a tree-node allocation — by far the hottest allocation
 * site of a simulator run), the global heap otherwise; ordering and
 * results are identical either way.
 */
class ReadyQueue
{
  public:
    using Set = std::set<ReadyEntry, std::less<ReadyEntry>,
                         ArenaAllocator<ReadyEntry>>;
    using iterator = Set::iterator;
    using const_iterator = Set::const_iterator;

    /** Insert @p e, stamping the next insertion sequence number. */
    void
    insert(ReadyEntry e)
    {
        e.seq = next_seq_++;
        entries_.insert(e);
    }

    iterator begin() { return entries_.begin(); }
    iterator end() { return entries_.end(); }
    const_iterator begin() const { return entries_.begin(); }
    const_iterator end() const { return entries_.end(); }

    /** Erase the entry at @p it; @return the next iterator. */
    iterator erase(iterator it) { return entries_.erase(it); }

    bool empty() const { return entries_.empty(); }
    size_t size() const { return entries_.size(); }

  private:
    Set entries_;
    uint64_t next_seq_ = 0;
};

/**
 * Min-heap of (cycle, id) retirement events.  Equal-cycle events pop
 * in ascending id order, so retirement order is deterministic.
 */
class ExpiryQueue
{
  public:
    /** Schedule item @p id to retire at @p cycle. */
    void schedule(uint64_t cycle, int id) { heap_.emplace(cycle, id); }

    bool empty() const { return heap_.empty(); }

    /** @return the earliest scheduled cycle, if any. */
    std::optional<uint64_t>
    nextDeadline() const
    {
        if (heap_.empty())
            return std::nullopt;
        return heap_.top().first;
    }

    /**
     * Pop the earliest event due at or before @p now.
     * @return its id, or nullopt when nothing is ripe.
     */
    std::optional<int>
    popRipe(uint64_t now)
    {
        if (heap_.empty() || heap_.top().first > now)
            return std::nullopt;
        int id = heap_.top().second;
        heap_.pop();
        return id;
    }

  private:
    using Event = std::pair<uint64_t, int>;
    std::priority_queue<Event,
                        std::vector<Event, ArenaAllocator<Event>>,
                        std::greater<>>
        heap_;
};

/** Timeouts of the route-claim escalation (Section 6.1). */
struct RouteClaimOptions
{
    /** Cycles a requester waits before trying the transposed route. */
    int adapt_timeout = 4;

    /** Cycles before falling back to the adaptive BFS detour. */
    int bfs_timeout = 8;
};

/**
 * The time-skipping core of the event-driven schedulers.
 *
 * A cycle-stepped simulator spends most cycles discovering that
 * nothing can change: every in-flight op is mid-stabilization and
 * every stalled op fails placement exactly as it did last cycle.
 * After a placement pass that claims nothing (and drops nothing),
 * the mesh, the ready queue and the factory stocks are all frozen
 * until the next *interesting* event — so the scheduler may jump
 * straight to it, bulk-accounting the elided cycles (wait counters,
 * failure counters, Mesh::tick(n)) instead of replaying them.
 *
 * The planner collects the interesting-event candidates of one such
 * pass:
 *
 *  - eventAt(): an externally scheduled cycle — the next ExpiryQueue
 *    retirement (frees routes, readies successors) or the next
 *    magic-state factory replenishment that raises a stock;
 *  - stalledOp(): the next wait-threshold crossing of a stalled op.
 *    Crossing adapt_timeout or bfs_timeout changes how the op routes
 *    (and, for T gates, how many factories it considers), and
 *    reaching drop_timeout reorders the ready queue — all of which
 *    change results, so the jump must land *on* the crossing, never
 *    beyond it.
 *
 * skippable() then returns how many whole do-nothing iterations can
 * be elided so that the next executed pass is the interesting one.
 * Everything the elided iterations would have done is linear in
 * their count, which is what keeps the fast-forwarded run
 * bit-identical to the one-cycle-at-a-time loop.
 */
class FastForward
{
  public:
    /** Start planning after a no-progress pass at cycle @p now. */
    void
    begin(uint64_t now)
    {
        now_ = now;
        next_ = no_event;
    }

    /** The pass at absolute @p cycle may behave differently. */
    void
    eventAt(uint64_t cycle)
    {
        next_ = std::min(next_, cycle);
    }

    /**
     * Register the escalation thresholds of a stalled op.
     *
     * @param wait_used the wait value the pass just routed with.
     * @param wait_now  the op's wait counter after the pass (usually
     *                  wait_used + 1; Policy 0's drop handling resets
     *                  it instead).
     */
    void
    stalledOp(int wait_used, int wait_now,
              const RouteClaimOptions &route, int drop_timeout)
    {
        // Future passes route with wait_now, wait_now + 1, ...; the
        // first one whose escalation stage differs from the pass
        // just executed is interesting.
        if (wait_used < route.adapt_timeout)
            eventIn(route.adapt_timeout - wait_now + 1);
        else if (wait_used < route.bfs_timeout)
            eventIn(route.bfs_timeout - wait_now + 1);
        // The pass whose failure pushes wait to drop_timeout drops
        // and re-inserts the op, reordering the queue.
        if (drop_timeout > 0)
            eventIn(static_cast<int64_t>(drop_timeout) - wait_now);
    }

    /**
     * @return how many consecutive do-nothing iterations may be
     * elided, given that the simulation fatals past @p horizon
     * anyway (so an event-free schedule still terminates).
     */
    uint64_t
    skippable(uint64_t horizon) const
    {
        uint64_t target = std::min(next_, horizon);
        return target > now_ + 1 ? target - now_ - 1 : 0;
    }

    /** Total cycles elided so far (for skip-ratio reporting). */
    uint64_t skipped() const { return skipped_; }

    /** Record @p n elided cycles. */
    void recordSkip(uint64_t n) { skipped_ += n; }

  private:
    /** A relative candidate; clamped to land no earlier than the
     *  very next pass. */
    void
    eventIn(int64_t delta)
    {
        eventAt(now_ + static_cast<uint64_t>(std::max<int64_t>(
                           1, delta)));
    }

    static constexpr uint64_t no_event = UINT64_MAX;

    uint64_t now_ = 0;
    uint64_t next_ = no_event;
    uint64_t skipped_ = 0;
};

/**
 * The shared plan-and-account step both schedulers run after a
 * placement pass that claimed nothing and dropped nothing: gather
 * the interesting-event candidates (next retirement, each stalled
 * op's thresholds, any backend-specific events via @p extra_events),
 * and when a jump is possible, bulk-account everything the elided
 * iterations would have done uniformly — ticks, placement-failure
 * counters, wait counters.  Backend-specific bulk counters (e.g.
 * braid magic starvations) are the caller's to apply, scaled by the
 * returned skip.
 *
 * @param attempted    (op id, wait value the pass routed with).
 * @param wait_of      callable int&(int id): the op's wait counter.
 * @param extra_events callable(FastForward&) registering additional
 *                     event candidates before the jump is planned.
 * @return the number of iterations elided (0 = nothing to skip);
 *         the caller advances its cycle counter by this.
 */
template <typename WaitOf, typename ExtraEvents>
uint64_t
fastForwardAfterStall(FastForward &ff, const ExpiryQueue &expiry,
                      network::Mesh &mesh, uint64_t now,
                      uint64_t horizon,
                      const std::vector<std::pair<int, int>> &attempted,
                      WaitOf &&wait_of, const RouteClaimOptions &route,
                      int drop_timeout, uint64_t &placement_failures,
                      ExtraEvents &&extra_events)
{
    ff.begin(now);
    if (auto deadline = expiry.nextDeadline())
        ff.eventAt(*deadline);
    extra_events(ff);
    for (const auto &[id, wait_used] : attempted)
        ff.stalledOp(wait_used, wait_of(id), route, drop_timeout);

    uint64_t skip = ff.skippable(horizon);
    if (skip == 0)
        return 0;
    ff.recordSkip(skip);
    mesh.tick(skip);
    placement_failures +=
        static_cast<uint64_t>(attempted.size()) * skip;
    for (const auto &[id, wait_used] : attempted)
        wait_of(id) += static_cast<int>(skip);
    return skip;
}

/**
 * Failure witnesses of the owners stalled on a claim.
 *
 * Between two attempts by the same owner, other owners' claims can
 * only take resources away.  A dimension-ordered or corridor route
 * fails exactly when one of its resources is held by someone else,
 * and a BFS detour fails exactly when every edge leaving the region
 * it explored is blocked.  So a stage that failed keeps failing
 * while its witness stays held, and the claimer can answer "no"
 * without building the route, suspending endpoint reservations or
 * searching.
 *
 * Each owner gets one slot per destination, up to three (a T gate
 * tries up to three factories).  A slot holds the first blocker of
 * the primary route, that of the fallback route, and the BFS
 * boundary.  A boundary that outgrew BfsScratch::max_witnesses is
 * not kept, so that search is walked again.
 *
 * Owners are op ids in [0, num_owners).  A flat index, sized once
 * per run, maps each owner to an entry of a pool; an owner's entry
 * returns to the pool's free list when it places, so entries follow
 * the stalled owners, not the circuit size, and a recycled entry
 * keeps its boundary vectors' capacity.  Like the ready queue, the
 * index and the pool come from the thread's scratch arena when one
 * is bound at construction (the memo lives for one run).
 */
class ClaimMemo
{
  public:
    /** What an owner's last failures to one destination left. */
    struct Slot
    {
        int32_t src = -1; ///< Key: source router index.
        int32_t dst = -1; ///< Key: destination router index.
        bool yx_first = false; ///< Key: preferred geometry.
        int32_t primary = -1;  ///< Primary route's blocker; -1 unknown.
        int32_t fallback = -1; ///< Fallback route's blocker; -1 unknown.
        /** True when bfs_boundary lists every blocked edge of the
         *  last failed search. */
        bool bfs_witnessed = false;
        std::vector<int32_t> bfs_boundary; ///< Mesh resource ids.
    };

    /** Destinations remembered per owner. */
    static constexpr int max_slots = 3;

    /** A memo for owner ids in [0, @p num_owners). */
    explicit ClaimMemo(int num_owners)
        : index_(static_cast<size_t>(num_owners), -1)
    {
    }

    /** @return @p owner's slot for the key, or null. */
    Slot *find(int owner, int32_t src, int32_t dst, bool yx_first);

    /**
     * @return a cleared slot for the key (absent from the memo),
     * replacing the owner's oldest slot when all are in use.
     */
    Slot &insert(int owner, int32_t src, int32_t dst, bool yx_first);

    /** Forget everything about @p owner. */
    void
    erase(int owner)
    {
        int32_t &e = index_[static_cast<size_t>(owner)];
        if (e >= 0) {
            free_.push_back(e);
            e = -1;
        }
    }

    /** @return owners with at least one slot. */
    size_t owners() const { return pool_.size() - free_.size(); }

  private:
    struct Entry
    {
        std::array<Slot, max_slots> slots;
        int inserted = 0; ///< Slots opened; the oldest is replaced.
    };

    /** Pool entry per owner id; -1 when the owner has none. */
    std::vector<int32_t, ArenaAllocator<int32_t>> index_;
    std::vector<Entry, ArenaAllocator<Entry>> pool_;
    std::vector<int32_t> free_; ///< Unused pool entries.
};

/**
 * The route-claim escalation of Section 6.1, shared by the
 * circuit-switched claimers: try the primary route, fall back to the
 * alternate geometry once the requester has waited adapt_timeout
 * cycles, and to a breadth-first detour through currently-free
 * resources after bfs_timeout.  On success the route is claimed on
 * the mesh atomically (the n-hops-in-1-cycle property).  Claim
 * attempts and the BFS detour are allocation-free: validation and
 * claiming share one mesh walk, and the detour search reuses an
 * epoch-stamped scratch owned by the claimer.  A ClaimMemo skips
 * every stage whose last failure is still witnessed, so a stalled
 * owner's repeat attempts cost a few ownership lookups.
 */
class EscalatingClaimer
{
  public:
    /** Successful placements that needed the transposed route. */
    uint64_t transposeFallbacks() const { return transpose_fallbacks_; }

    /** Successful placements that needed the BFS detour. */
    uint64_t bfsDetours() const { return bfs_detours_; }

    /**
     * Drop @p owner's failure witnesses.  Call when it placed
     * without the claimer (a teleport); a claim does it itself.
     */
    void forget(int owner) { memo_.erase(owner); }

    /** @return owners whose failure witnesses are remembered. */
    size_t stalledOwners() const { return memo_.owners(); }

    /** @return attempts answered from failure witnesses alone. */
    uint64_t witnessedFailures() const { return witnessed_failures_; }

  protected:
    EscalatingClaimer(network::Mesh &mesh, const RouteClaimOptions &opts,
                      int num_owners)
        : mesh_(mesh), opts_(opts), memo_(num_owners)
    {
    }

    /**
     * Run the escalation for @p owner from @p src to @p dst.
     *
     * @param route    callable(bool fallback) returning the primary
     *                 or fallback path; called only for walked
     *                 stages.
     * @param suspends callable(int resource, int holder): true when
     *                 the attempt itself suspends that hold, so it
     *                 does not witness a failure.
     * @param suspend  callable(bool suspend): suspend (true) before
     *                 the first walk, restore (false) after a
     *                 failure.
     */
    template <typename Route, typename Suspends, typename Suspend>
    std::optional<network::Path>
    escalate(int owner, const Coord &src, const Coord &dst, int wait,
             bool yx_first, Route &&route, Suspends &&suspends,
             Suspend &&suspend);

    network::Mesh &mesh_;

  private:
    RouteClaimOptions opts_;
    network::BfsScratch scratch_;
    ClaimMemo memo_;
    uint64_t transpose_fallbacks_ = 0;
    uint64_t bfs_detours_ = 0;
    uint64_t witnessed_failures_ = 0;
};

/**
 * Braid routes: the preferred dimension-ordered route, then the
 * transposed one, then the BFS detour.
 */
class RouteClaimer : public EscalatingClaimer
{
  public:
    /** A claimer for owner ids in [0, @p num_owners). */
    RouteClaimer(network::Mesh &mesh, const RouteClaimOptions &opts,
                 int num_owners)
        : EscalatingClaimer(mesh, opts, num_owners)
    {
    }

    /**
     * Try to claim a route from @p src to @p dst for @p owner.
     *
     * @param wait     cycles the owner has already failed to place;
     *                 drives the escalation.
     * @param yx_first prefer the Y-then-X geometry (Figure 5's
     *                 closing segment); the transposed fallback is
     *                 then X-then-Y.
     * @return the claimed path, or nullopt when every stage failed.
     */
    std::optional<network::Path> tryClaim(const Coord &src,
                                          const Coord &dst, int owner,
                                          int wait, bool yx_first);

  private:
    /** The walked dimension-ordered route, rebuilt in place. */
    network::Path route_;
};

/**
 * The chain-claiming variant of RouteClaimer, for lattice-surgery
 * merge/split corridors (Section 8.2).
 *
 * Chains differ from braids in two ways.  First, the corridor may
 * not pass *through* a live data patch: every patch terminal is
 * reserved up front, and a chain only touches the two patches it
 * merges (their reservations are suspended while the chain runs).
 * Second, the preferred geometry is not plain dimension-ordered —
 * callers supply corridor-aware primary/fallback routes (built by
 * the patch architecture) and the claimer escalates primary ->
 * fallback -> BFS-through-free-resources on the same timeouts as
 * RouteClaimer.  Like a braid, a granted chain owns its whole
 * corridor exclusively until release().
 */
class ChainClaimer : public EscalatingClaimer
{
  public:
    /** A claimer for owner ids in [0, @p num_owners). */
    ChainClaimer(network::Mesh &mesh, const RouteClaimOptions &opts,
                 int num_owners)
        : EscalatingClaimer(mesh, opts, num_owners),
          reserved_(static_cast<size_t>(mesh.numNodes()), -1)
    {
    }

    /**
     * Reserve @p terminal as a live patch: no chain may route
     * through it (only chains terminating there may touch it).
     */
    void reserveTerminal(const Coord &terminal);

    /** @return true when @p c is a reserved patch terminal. */
    bool isReserved(const Coord &c) const;

    /**
     * Try to claim the corridor of @p primary (endpoints included)
     * for @p owner.  Every call for one pair of endpoints must pass
     * the same two routes (CorridorRouter's do): the failure
     * witnesses are keyed by the endpoints.
     *
     * @param primary  preferred corridor route; its endpoints name
     *                 the two patches being merged.
     * @param fallback alternate geometry, tried once the owner has
     *                 waited adapt_timeout cycles.
     * @param wait     cycles the owner has already failed to place.
     * @return the claimed corridor, or nullopt when every stage
     *         failed (endpoint reservations are then restored).
     */
    std::optional<network::Path>
    tryClaim(const network::Path &primary,
             const network::Path &fallback, int owner, int wait);

    /** Release @p chain and restore its endpoint reservations. */
    void release(const network::Path &chain, int owner);

  private:
    /** Restore (true) or suspend (false) an endpoint reservation. */
    void setEndpointReserved(const Coord &c, bool reserved);

    /** First sentinel owner id; far above any op id. */
    static constexpr int reserved_owner_base = 1 << 28;

    /** Sentinel owner per mesh node, -1 where unreserved: a flat
     *  table sized once, replacing the old std::map<Coord,int>. */
    std::vector<int32_t> reserved_;
    int num_reserved_ = 0;
};

/**
 * Rate-limited magic-state distillation (Section 4.3), shared by
 * every scheduler that sources T gates from factory tiles/patches.
 *
 * Each factory distills one state every production_cycles cycles
 * into a bounded buffer; a T placement consumes one state and a
 * factory with an empty buffer refuses placements (a *starvation*).
 * production_cycles <= 0 models the paper's critical-path-sized
 * factories: supply is never the bottleneck and every query says
 * stocked.  Replenishment order is deterministic (factory index),
 * so schedulers using the pool stay bit-identical across sweep
 * threads and fast-forward modes.
 */
class MagicFactoryPool
{
  public:
    /**
     * Configure @p num_factories factories distilling one state per
     * @p production_cycles into buffers of @p buffer_capacity.
     * Buffers start full; the first refill lands at
     * production_cycles.
     */
    void
    configure(int num_factories, int production_cycles,
              int buffer_capacity)
    {
        production_ = production_cycles;
        capacity_ = buffer_capacity;
        if (production_ <= 0)
            return;
        stock_.assign(static_cast<size_t>(num_factories),
                      buffer_capacity);
        next_ready_.assign(static_cast<size_t>(num_factories),
                           static_cast<uint64_t>(production_cycles));
    }

    /** @return true when production is rate-limited. */
    bool limited() const { return production_ > 0; }

    /**
     * Attach a trace hook; replenish() then emits FactoryReplenish
     * events.  Events are timestamped with the factory's production
     * deadline, not the cycle replenish() happened to be called at,
     * so a fast-forwarding scheduler catching up several refills in
     * one call produces the exact event stream of the stepped loop.
     */
    void setTrace(obs::TraceRecorder *trace) { trace_ = trace; }

    /** @return true when factory @p f can supply a state now. */
    bool
    hasState(int f) const
    {
        if (!limited())
            return true;
        return stock_[static_cast<size_t>(f)] > 0;
    }

    /** Take one state from factory @p f (no-op when unlimited). */
    void consume(int f);

    /** Advance every distillation pipeline to @p now. */
    void
    replenish(uint64_t now)
    {
        if (!limited())
            return;
        for (size_t f = 0; f < stock_.size(); ++f) {
            while (next_ready_[f] <= now) {
                if (stock_[f] < capacity_) {
                    ++stock_[f];
                    if (trace_)
                        trace_->record(
                            {next_ready_[f],
                             obs::EventKind::FactoryReplenish,
                             static_cast<int32_t>(f), stock_[f]});
                }
                next_ready_[f] += static_cast<uint64_t>(production_);
            }
        }
    }

    /**
     * Register the next replenishment that raises a stock as a
     * fast-forward event candidate: a refill can change a stalled
     * T gate's candidate factories, so the jump must not overshoot
     * it.
     */
    void
    registerEvents(FastForward &planner) const
    {
        if (!limited())
            return;
        for (size_t f = 0; f < stock_.size(); ++f)
            if (stock_[f] < capacity_)
                planner.eventAt(next_ready_[f]);
    }

  private:
    int production_ = 0;
    int capacity_ = 0;
    std::vector<int> stock_;
    std::vector<uint64_t> next_ready_;
    obs::TraceRecorder *trace_ = nullptr;
};

/**
 * T-gate factory candidate selection shared by the schedulers:
 * nearest factories first, widening from 1 to 3 candidates once the
 * op has waited past @p adapt_timeout, and skipping factories with
 * no distilled state.  Appends (terminal(f), f) pairs to @p dsts.
 *
 * @return true when at least one stocked candidate was appended —
 * false is a starvation, counted by the caller.
 */
template <typename Terminal>
bool
appendStockedFactories(const MagicFactoryPool &pool,
                       const std::vector<int> &order, int wait,
                       int adapt_timeout,
                       std::vector<std::pair<Coord, int>> &dsts,
                       Terminal &&terminal)
{
    size_t limit = wait >= adapt_timeout
        ? std::min<size_t>(3, order.size())
        : 1;
    bool any_stock = false;
    for (size_t f = 0; f < limit; ++f) {
        int fac = order[f];
        if (!pool.hasState(fac))
            continue;
        any_stock = true;
        dsts.emplace_back(terminal(fac), fac);
    }
    return any_stock;
}

/**
 * A pool of identical transport channels.  acquire() reserves the
 * earliest free slot, modelling a bandwidth-limited link set whose
 * transfers queue when all channels are busy.
 */
class ChannelPool
{
  public:
    /** @param slots concurrent transfers the pool sustains. */
    explicit ChannelPool(int slots) : slots_(slots) {}

    /**
     * Reserve a slot for a transfer of @p duration cycles starting no
     * earlier than @p earliest.
     * @return the actual start cycle (>= @p earliest).
     */
    uint64_t
    acquire(uint64_t earliest, uint64_t duration)
    {
        uint64_t start = earliest;
        while (static_cast<int>(busy_until_.size()) >= slots_) {
            start = std::max(start, busy_until_.top());
            busy_until_.pop();
        }
        busy_until_.push(start + duration);
        return start;
    }

    /**
     * @return the cycle at which acquire(@p earliest, ...) would
     * start, without reserving anything — the queueing-delay peek a
     * cost-model arbiter uses to price a transfer before committing
     * to it.
     */
    uint64_t
    earliestStart(uint64_t earliest) const
    {
        if (static_cast<int>(busy_until_.size()) < slots_)
            return earliest;
        return std::max(earliest, busy_until_.top());
    }

  private:
    int slots_;
    std::priority_queue<uint64_t, std::vector<uint64_t>,
                        std::greater<>>
        busy_until_;
};

/**
 * Sweep-line accounting of live intervals (+1 at start, -1 at end):
 * peak concurrency and the time-averaged population over a horizon.
 */
class LiveIntervalProfile
{
  public:
    /** Record one interval live from @p start to @p end. */
    void
    add(uint64_t start, uint64_t end)
    {
        deltas_.emplace_back(start, +1);
        deltas_.emplace_back(end, -1);
    }

    struct Summary
    {
        uint64_t peak = 0;  ///< Maximum simultaneous intervals.
        double average = 0; ///< Time-averaged population.
    };

    /** Summarize over @p total_cycles (for the average). */
    Summary summarize(uint64_t total_cycles) const;

  private:
    std::vector<std::pair<uint64_t, int>> deltas_;
};

} // namespace qsurf::engine

#endif // QSURF_ENGINE_SIM_H
