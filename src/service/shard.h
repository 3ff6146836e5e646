/**
 * @file
 * Multi-process sharded sweep execution — fault-tolerant.
 *
 * runShardedSweep() partitions a SweepGrid across a fleet of worker
 * processes and merges their rows into the same results (and the
 * same BENCH_*.json) a single-process SweepDriver::run() produces.
 * Points are partitioned by residue class (grid index modulo the
 * fleet width) and per-point seeds depend only on the grid, so any
 * worker reproduces exactly the rows any other execution would
 * produce for its indices — the merged document is byte-identical to
 * the single-process one (canonicalSweepRows() compares them;
 * wall-clock observations are excluded, they physically differ).
 *
 * The fleet mixes three worker shapes behind one wire protocol
 * (src/service/wire.h — Hello up, ShardAssign down, Row/Done up,
 * Shutdown down):
 *
 *  - forked locals over a socketpair (grid inherited, so
 *    caller-built circuits need no serialization);
 *  - forked locals connecting back over TCP loopback
 *    (ShardOptions::local_tcp — the hermetic transport check);
 *  - remote workers (`compile_server --sweep-worker` listening on
 *    host:port, named in ShardOptions::remote_workers) that the
 *    parent dials with capped-backoff retries and ships the grid to
 *    as JSON.
 *
 * One dead peer never kills the fleet: the parent tracks completion
 * per point (the rows_path stream persists finished rows), detects
 * worker death via read-EOF/reset/corrupt-frame/waitpid or a stall
 * deadline, and reassigns the lost worker's *unfinished* residue
 * classes — to a respawned local worker while max_worker_restarts
 * allows, then to surviving workers as they go idle.  Failures are
 * summarized in FleetStats (degraded mode) rather than aborting the
 * sweep; only an unrecoverable fleet (no survivors, restarts
 * exhausted) is fatal.
 */

#ifndef QSURF_SERVICE_SHARD_H
#define QSURF_SERVICE_SHARD_H

#include <string>
#include <vector>

#include "engine/registry.h"
#include "engine/sweep.h"

namespace qsurf::service {

/** Outcome counters of one sharded sweep fleet (degraded-mode
 *  summary). */
struct FleetStats
{
    uint64_t workers_started = 0;  ///< Initial fleet + respawns.
    uint64_t worker_failures = 0;  ///< Deaths, stalls, Error frames.
    uint64_t worker_restarts = 0;  ///< Replacement locals forked.
    uint64_t reassignments = 0;    ///< Orphaned slices re-dispatched.
    uint64_t points_reassigned = 0; ///< Unfinished points moved.
    uint64_t connect_retries = 0;  ///< Failed remote dial attempts.
    uint64_t remote_redials = 0;   ///< Dead remotes that rejoined.

    /** Any worker was lost along the way: the rows are still exact,
     *  but wall clock ran under reduced parallelism. */
    bool degraded = false;
};

/** Knobs of one sharded sweep. */
struct ShardOptions
{
    /** Local worker processes to fork; may be 0 when
     *  remote_workers is non-empty. */
    int workers = 2;

    /**
     * Per-worker sweep execution options.  json_path / rows_path /
     * resume / title apply to the parent's merged output; the
     * workers run with num_threads / use_cache / use_arena of this
     * and never write files themselves.  trace / metrics / on_row /
     * point_filter / heap_alloc_counter are parent-side concepts and
     * must be unset (fatal() otherwise): a forked worker's registry
     * would die with it.
     */
    engine::SweepOptions sweep;

    /**
     * Seconds of silence (no frame from any worker) before the
     * parent declares the whole fleet hung, kills it and fatal()s;
     * 0 disables.  This is the CI guard against a wedged fleet
     * stalling a pipeline forever.
     */
    int idle_timeout_sec = 600;

    /**
     * Remote sweep workers, "host:port" each — `compile_server
     * --sweep-worker --tcp=...` processes on other machines.  The
     * parent dials them with connectWithRetry() and ships the grid
     * as JSON, so grids with caller-built circuits (not
     * representable on the wire) fatal() here.  A remote worker
     * that dies falls back to local respawns or survivors — and is
     * periodically redialed when remote_redial_interval_sec is set,
     * so a restarted process on the same address rejoins the fleet.
     */
    std::vector<std::string> remote_workers;

    /**
     * Seconds between redial probes of dead remote workers while
     * orphaned work exists.  Each probe is a single connect attempt
     * (no backoff — the poll loop must keep draining live workers);
     * a probe that connects puts the worker back in rotation, where
     * the normal orphan dispatch hands it a slice.  Counted in
     * FleetStats::remote_redials.  0 disables redialing (a dead
     * remote stays dead, the historical behavior).
     */
    int remote_redial_interval_sec = 0;

    /**
     * Fork local workers that connect back over TCP loopback
     * instead of a socketpair: same processes, same rows, but the
     * bytes cross the real TCP transport (the scale-out bench's
     * transport-equivalence check).
     */
    bool local_tcp = false;

    /**
     * Replacement local workers the parent may fork after worker
     * deaths; once exhausted, orphaned slices wait for surviving
     * workers to go idle.  0 disables respawning.
     */
    int max_worker_restarts = 2;

    /**
     * Seconds of per-worker silence (while it owes rows) before
     * that one worker is declared hung, killed and its slice
     * reassigned; 0 disables.  Distinct from idle_timeout_sec,
     * which is fleet-wide and fatal.
     */
    int worker_stall_timeout_sec = 0;

    /**
     * Fault injection for tests and the scale-out bench: SIGKILL
     * the local worker at fleet slot fault_kill_worker right after
     * the parent has merged fault_kill_after_rows of its rows,
     * discarding any further rows it had in flight (what a
     * mid-compute crash looks like) — so the orphaned remainder of
     * its slice is the same at any scheduling.  -1 disables.
     */
    int fault_kill_worker = -1;
    int fault_kill_after_rows = 0;

    /** When non-null, receives the fleet outcome summary. */
    FleetStats *stats = nullptr;
};

/**
 * Run @p grid across the worker fleet; @return results in grid
 * expansion order, exactly as SweepDriver::run() would.  Worker
 * deaths are recovered per the options above; fatal() is reserved
 * for configuration errors and unrecoverable fleets (every worker
 * dead with restarts exhausted, or the fleet-wide idle timeout).
 */
std::vector<engine::SweepPoint>
runShardedSweep(const engine::SweepGrid &grid,
                const ShardOptions &opts,
                const engine::Registry &registry =
                    engine::Registry::global());

/** Environment of one sweep-worker connection (serveSweepWorker). */
struct SweepWorkerEnv
{
    /**
     * The inherited grid (forked workers); null means the worker
     * expects the grid as JSON inside its first ShardAssign (remote
     * workers, which share no memory with the parent).
     */
    const engine::SweepGrid *grid = nullptr;

    /** Execution options (threads, cache, arena); output/callback
     *  fields are overridden by the worker loop. */
    engine::SweepOptions base;

    /** Fleet slot announced in the worker's Hello; -1 for workers
     *  not spawned by the parent (remote compile_server). */
    int slot = -1;

    /** Backend registry; null uses Registry::global(). */
    const engine::Registry *registry = nullptr;
};

/**
 * Serve one sweep-worker connection on @p fd: send Hello, then loop
 * — ShardAssign in (residue classes, completion bitmap, optional
 * grid), Row frames out per completed point, Done when the slice is
 * finished — until Shutdown or disconnect.  @return true on an
 * orderly Shutdown, false when the parent vanished.  Shared by the
 * forked shard workers and `compile_server --sweep-worker`.
 */
bool serveSweepWorker(int fd, const SweepWorkerEnv &env);

/**
 * @return the fleet slot a worker's Hello @p payload names; fatal()
 * unless it is an integer below @p width.
 */
size_t helloSlot(const std::string &payload, size_t width);

} // namespace qsurf::service

#endif // QSURF_SERVICE_SHARD_H
