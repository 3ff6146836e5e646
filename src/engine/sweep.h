/**
 * @file
 * The parallel sweep driver behind every figure of the evaluation.
 *
 * A SweepGrid declares the cross-product the paper's figures are
 * built from — applications x the axes forEachAxis() lists (sizes,
 * distances, braid policies, ...) x backends — and the driver
 * expands it into work items, executes them across a thread pool,
 * and returns the results in grid order.  Per-item seeds are derived
 * deterministically from the base seed and the item's application
 * point (so policy/distance/size comparisons run on the same seeded
 * machine layout, and a sweep is bit-identical at any thread count);
 * the figure benches are each one declarative grid plus table/JSON
 * rendering.
 */

#ifndef QSURF_ENGINE_SWEEP_H
#define QSURF_ENGINE_SWEEP_H

#include <fstream>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "engine/backend.h"
#include "engine/registry.h"
#include "obs/trace.h"

namespace qsurf::service {
class PrepareCache;
} // namespace qsurf::service

namespace qsurf::engine {

/** One application axis point: a generated or caller-built workload. */
struct AppPoint
{
    AppPoint() = default;

    /** A generated workload (the {kind, gen, label} shorthand the
     *  benches use). */
    AppPoint(apps::AppKind kind, apps::GenOptions gen = {},
             std::string label = {})
        : kind(kind), gen(gen), label(std::move(label))
    {
    }

    /** A caller-built logical circuit as the workload. */
    explicit AppPoint(std::shared_ptr<const circuit::Circuit> circuit,
                      std::string label = {})
        : label(std::move(label)), circuit(std::move(circuit))
    {
    }

    apps::AppKind kind = apps::AppKind::SQ;

    /** Generator knobs (problem size, iteration cap). */
    apps::GenOptions gen;

    /** Display-name override; empty uses the circuit name (when
     *  caller-built) or the app spec name. */
    std::string label;

    /**
     * Caller-built logical circuit; when set it replaces the
     * generated app as this point's workload (the driver decomposes
     * it like a generated one, cached by content fingerprint).
     * Declared last so the {kind, gen, label} aggregate init every
     * bench uses keeps working.
     */
    std::shared_ptr<const circuit::Circuit> circuit;
};

/**
 * The declarative cross-product one sweep executes.  Its axes
 * between `apps` and `backends` are listed once, in forEachAxis():
 * adding an axis means one member here, one in SweepPoint and one
 * line there.
 */
struct SweepGrid
{
    /** Applications (outermost axis). */
    std::vector<AppPoint> apps;

    /** Registry names of the backends to run (innermost axis). */
    std::vector<std::string> backends;

    /** Braid policy indices; non-braid backends ignore them. */
    std::vector<int> policies = {6};

    /**
     * Hybrid scheme-arbiter indices (hybrid::ArbiterKind values);
     * backends other than "hybrid/mixed-sim" ignore them.
     */
    std::vector<int> arbiters = {0};

    /**
     * Patch-layout objectives (partition::LayoutObjective values)
     * for the surgery and hybrid backends; the braid and planar
     * backends ignore them (they keep the Manhattan objective).
     */
    std::vector<int> layout_objectives = {0};

    /** Code distances; 0 selects from KQ and pP. */
    std::vector<int> distances = {0};

    /**
     * EPR lookahead windows (steps) for the planar backend; -1 keeps
     * base.epr_window_steps, so grids without the axis are
     * unchanged.  0 is prefetch-all (the Section 8.1 baseline).
     * Backends without EPR pipelining ignore the axis.
     */
    std::vector<int> epr_windows = {-1};

    /**
     * Computation sizes KQ for the analytic model backends; 0
     * derives the size from the generated circuit.
     */
    std::vector<double> sizes = {0};

    /**
     * Fabric defect densities (the yield-sweep axis); 0 is the
     * perfect mesh, and the default {0} leaves grids without the
     * axis unchanged.  Map seed and explicit spec come from the base
     * config (base.defect_seed / base.defect_spec).
     */
    std::vector<double> defects = {0};

    /** Shared run parameters (technology, windows, base seed). */
    RunConfig base;

    /** @return the number of work items the grid expands into. */
    size_t points() const;
};

/** One executed grid point, in expansion order. */
struct SweepPoint
{
    size_t index = 0;     ///< Position in grid expansion order.
    size_t app_index = 0; ///< Index into SweepGrid::apps.
    std::string app_name; ///< Resolved display name.
    std::string backend;  ///< Backend registry name.
    int policy = 0;
    int arbiter = 0;      ///< Hybrid scheme-arbiter index.
    int layout_objective = 0; ///< Patch-layout objective index.
    int epr_window = -1;  ///< Grid value (-1 = base config's).
    int distance = 0;     ///< Grid value (0 = auto; see metrics).
    double kq = 0;        ///< Grid value (0 = from circuit).
    double defect = 0;    ///< Fabric defect density (0 = perfect).
    Metrics metrics;

    /**
     * Wall-clock time of this point's Backend::run(), in
     * milliseconds.  Kept out of Metrics on purpose: metrics are
     * bit-identical across runs and thread counts, wall time never
     * is.
     */
    double wall_ms = 0;

    /**
     * Wall-clock time of this point's prepare-artifact fetch, in
     * milliseconds.  Cache hits make it near-zero; with the cache
     * off it stays 0 (prepare runs inside wall_ms, as it always
     * did).
     */
    double prepare_ms = 0;

    /**
     * Scratch-arena activity of this point's execution (allocation
     * count and bytes bumped), when the driver ran it under a
     * per-point arena (SweepOptions::use_arena).  Like wall_ms these
     * are execution-mode observations, not results: they vary with
     * cache warmth and arena on/off, so they live outside Metrics
     * and outside the canonical row serialization.
     */
    uint64_t arena_allocs = 0;
    uint64_t arena_bytes = 0;

    /**
     * Global-heap allocations during this point's execution, when
     * the caller supplied SweepOptions::heap_alloc_counter (bench
     * binaries hook operator new).  Exact at num_threads = 1;
     * cross-polluted by concurrent workers otherwise.
     */
    uint64_t heap_allocs = 0;

    /** @return simulated cycles per wall-clock second (the perf
     *  trajectory number), or 0 when unmeasurable. */
    double
    simCyclesPerSec() const
    {
        return wall_ms > 0
            ? static_cast<double>(metrics.schedule_cycles)
                / (wall_ms / 1000.0)
            : 0.0;
    }
};

/**
 * One SweepGrid axis as forEachAxis() declares it: where its values
 * live, the keys it travels under, how it sets a run's config and
 * where a sweep row carries it.
 */
template <typename T>
struct SweepAxis
{
    std::vector<T> SweepGrid::*values; ///< The grid's value list.
    T SweepPoint::*point;              ///< An expanded point's value.
    const char *wire_key;              ///< Key in the wire grid codec.

    /** Key in a sweep row; null when rows do not carry the axis
     *  (the resolved distance travels as code_distance). */
    const char *row_key;

    /** The forEachMetric field the row key follows. */
    const char *row_after;

    /** @return whether a row carries value @p v; null means always.
     *  Rows leave out the values that mean "unset", so grids
     *  without the axis keep their row bytes. */
    bool (*in_row)(T v);

    /** Set @p config's field from the point's value @p v. */
    void (*apply)(RunConfig &config, T v);

    /** @return whether a row of @p p carries this axis. */
    bool
    carried(const SweepPoint &p) const
    {
        return row_key && (!in_row || in_row(p.*point));
    }
};

/**
 * The one list of SweepGrid's axes, in expansion order (apps are
 * outermost before them, backends innermost after them): calls
 * @p f(axis) once per axis with a SweepAxis<int> or
 * SweepAxis<double>.  The expansion, the grid fingerprint, the
 * per-point RunConfig, the sweep row codec, the row merge and the
 * wire grid codec all loop over it.
 */
template <typename F>
void
forEachAxis(F &&f)
{
    f(SweepAxis<double>{&SweepGrid::sizes, &SweepPoint::kq, "sizes",
                        "kq", "code_distance",
                        [](double v) { return v > 0; },
                        [](RunConfig &c, double v) { c.kq = v; }});
    f(SweepAxis<int>{&SweepGrid::distances, &SweepPoint::distance,
                     "distances", nullptr, nullptr, nullptr,
                     [](RunConfig &c, int v) { c.code_distance = v; }});
    f(SweepAxis<int>{&SweepGrid::policies, &SweepPoint::policy,
                     "policies", "policy", "code", nullptr,
                     [](RunConfig &c, int v) { c.policy = v; }});
    f(SweepAxis<int>{&SweepGrid::arbiters, &SweepPoint::arbiter,
                     "arbiters", "arbiter", "code", nullptr,
                     [](RunConfig &c, int v) { c.hybrid_arbiter = v; }});
    f(SweepAxis<int>{&SweepGrid::layout_objectives,
                     &SweepPoint::layout_objective, "layout_objectives",
                     "layout_objective", "code", nullptr,
                     [](RunConfig &c, int v) { c.layout_objective = v; }});
    // -1 keeps the base config's window.
    f(SweepAxis<int>{&SweepGrid::epr_windows, &SweepPoint::epr_window,
                     "epr_windows", "epr_window", "code",
                     [](int v) { return v >= 0; },
                     [](RunConfig &c, int v) {
                         if (v >= 0)
                             c.epr_window_steps = v;
                     }});
    // The density only: map seed and explicit spec ride along from
    // the base config.
    f(SweepAxis<double>{&SweepGrid::defects, &SweepPoint::defect,
                        "defects", "defect", "code_distance",
                        [](double v) { return v > 0; },
                        [](RunConfig &c, double v) {
                            c.defect_density = v;
                        }});
}

/** Execution knobs of one sweep. */
struct SweepOptions
{
    /** Worker threads; values < 1 use defaultThreads(). */
    int num_threads = 1;

    /** When non-empty, write the results as JSON to this path. */
    std::string json_path;

    /** Title recorded in the JSON output. */
    std::string title;

    /**
     * Route prepare work (decomposed circuits, seeded layouts)
     * through the PrepareCache.  Results are bit-identical either
     * way; disable for cold-path A/B measurement.
     */
    bool use_cache = true;

    /** Cache to use; null means PrepareCache::global(). */
    service::PrepareCache *cache = nullptr;

    /**
     * Trace session collecting structured events from every grid
     * point; null disables tracing.  Each point gets its own
     * RunRecorder keyed by grid index, so the session's files are
     * identical at any thread count, and results are bit-identical
     * with tracing on or off.
     */
    obs::TraceSession *trace = nullptr;

    /**
     * Registry receiving wall-clock per-point phase timings
     * ("sweep.phase.prepare_ms", "sweep.phase.run_ms"); null
     * disables.  Wall-clock numbers are kept out of the trace
     * session's deterministic metrics on purpose.
     */
    obs::MetricsRegistry *metrics = nullptr;

    /**
     * When set, only grid indices it returns true for are executed;
     * the rest keep their metadata and zero metrics.  This is the
     * sharding hook: a worker process runs the same grid with a
     * filter selecting its slice, and determinism guarantees the
     * slice's rows match what any other execution produces for
     * those indices.
     */
    std::function<bool(size_t index)> point_filter;

    /**
     * Stream each completed row to the row stream (see rows_path)
     * as soon as it finishes, one flushed JSON line per point, so a
     * killed or crashed sweep leaves a valid partial file a resumed
     * run (or a human) can use.  Only active when a rows path
     * resolves (rows_path, or json_path + ".rows").
     */
    bool stream_rows = true;

    /**
     * Row-stream file; empty derives json_path + ".rows" (and stays
     * off when json_path is empty too).  Line 1 is a header naming
     * the grid fingerprint; each further line is one completed
     * point, in completion order, self-identified by "index".
     */
    std::string rows_path;

    /**
     * Resume from an existing row stream: rows whose header matches
     * this grid (fingerprint, title, point count) are merged into
     * the results and their points are not re-executed; the stream
     * is then appended to.  A missing, mismatched or torn file
     * falls back to a fresh run (a torn final line — the crash
     * case — is dropped, not fatal).
     */
    bool resume = false;

    /**
     * Run every point under a per-worker scratch arena (reset per
     * point): BFS working sets, row assembly and other
     * scratch-aware callees bump-allocate instead of hitting the
     * global heap.  Results are bit-identical on or off; disable
     * for allocation A/B measurement (bench/scaleout does).
     */
    bool use_arena = true;

    /**
     * Called after each point completes (and after its row line is
     * streamed), under the row lock, in completion order.
     * @p row_line is the point's JSONL row (valid only during the
     * call); shard workers forward it as a wire frame.
     */
    std::function<void(const SweepPoint &point,
                       std::string_view row_line)>
        on_row;

    /**
     * Global-heap allocation counter sampled around each point's
     * execution (bench binaries pass a hook over their replaced
     * operator new); null leaves SweepPoint::heap_allocs at 0.
     */
    std::function<uint64_t()> heap_alloc_counter;
};

/**
 * Expands grids into work items and executes them across a thread
 * pool.  Results are deterministic: the output vector is in grid
 * expansion order and every item's seed depends only on the base
 * seed and its index, never on thread scheduling.
 */
class SweepDriver
{
  public:
    explicit SweepDriver(const Registry &registry = Registry::global())
        : registry(registry)
    {
    }

    /** Run every point of @p grid; @return results in grid order. */
    std::vector<SweepPoint> run(const SweepGrid &grid,
                                const SweepOptions &opts = {}) const;

  private:
    const Registry &registry;
};

/**
 * Expand @p grid into its point metadata (names, axis values, grid
 * order) without generating circuits or running anything.  Validates
 * the axes and backend names like SweepDriver::run does.  The shard
 * parent uses this to know the full grid it is merging worker rows
 * into; resume uses it to cross-check loaded rows.
 */
std::vector<SweepPoint>
expandSweepPoints(const SweepGrid &grid,
                  const Registry &registry = Registry::global());

/**
 * Render sweep results as JSON: a title plus one record per grid
 * point with the full uniform metrics and the backend extras.  When
 * @p cache is non-null its hit/miss/evict counters are recorded
 * under a top-level "cache" object.  @p timing includes the
 * wall-clock and allocation observations (wall_ms, prepare_ms,
 * sim_cycles_per_sec, arena/heap counters); with it false the
 * output is canonical — deterministic in the grid alone, identical
 * across runs, thread counts and process shardings.
 */
void writeSweepJson(std::ostream &os, const std::string &title,
                    const std::vector<SweepPoint> &points,
                    const service::PrepareCache *cache = nullptr,
                    bool timing = true);

/** Write one result-row object of writeSweepJson (shared by the
 *  full document, the row stream and the wire Row frames). */
void writeSweepRow(JsonWriter &j, const SweepPoint &p,
                   bool timing = true);

/** Write @p p as one compact JSONL row-stream line (no trailing
 *  newline): the writeSweepRow object plus a leading "index". */
void writeSweepRowLine(std::ostream &os, const SweepPoint &p);

/**
 * Parse a row-stream line (or wire Row frame payload) back into a
 * SweepPoint.  Round-trips exactly: numbers use shortest
 * round-trippable formatting, so write(parse(line)) == line and a
 * merged document is byte-identical to one written in-process.
 * fatal()s on malformed input, including a number its field cannot
 * hold exactly (read with the wire codec's readers, readJson).
 */
SweepPoint parseSweepRowLine(const std::string &line);

/**
 * @return the canonical serialization of @p points' result rows
 * (compact, timing excluded): equal strings <=> the sweeps produced
 * identical results.  The shard bench and tests compare these.
 */
std::string canonicalSweepRows(const std::vector<SweepPoint> &points);

/**
 * @return a fingerprint of everything that determines @p grid's
 * results: every axis, every base-config field, app generator knobs
 * and caller-circuit fingerprints.  Each list's length is hashed
 * before its values, so two grids that differ only in where one
 * axis ends and the next begins never share a fingerprint.  The
 * row-stream header records it so resume never merges rows from a
 * different experiment.
 */
uint64_t sweepGridFingerprint(const SweepGrid &grid);

/** Write the row-stream header line (no trailing newline). */
void writeSweepRowsHeader(std::ostream &os, const SweepGrid &grid,
                          const std::string &title);

/**
 * Merge @p row into @p points (the expanded grid) at its index and
 * mark it in @p done.  The merged point keeps the expanded index,
 * app index and axis values; the first row for an index wins.
 * fatal()s naming @p source when the index is out of range or the
 * row disagrees with its expanded point on the app, the backend or
 * any axis the row carries.  @return whether the point was new.
 */
bool mergeSweepRow(SweepPoint row, std::vector<SweepPoint> &points,
                   std::vector<uint8_t> &done,
                   const std::string &source);

/**
 * Load a row stream written against @p grid: rows merge into
 * @p points (which must be the expanded grid) and @p done marks
 * their indices.  @return rows merged; 0 when the file is missing
 * or its header does not match (callers then run fresh).  A torn
 * trailing line — unparsable, or missing its newline — is ignored;
 * a row disagreeing with the expanded metadata fatal()s (see
 * mergeSweepRow).
 *
 * @p valid_bytes, when non-null, receives the byte length of the
 * validated newline-terminated prefix.  Resuming writers must
 * truncate the file to it before appending, or a torn tail would
 * fuse with the first appended row and corrupt the stream.
 */
size_t loadSweepRows(const std::string &path, const SweepGrid &grid,
                     const std::string &title,
                     std::vector<SweepPoint> &points,
                     std::vector<uint8_t> &done,
                     size_t *valid_bytes = nullptr);

/**
 * Open @p out on the row stream @p opts names (rows_path, else
 * json_path + ".rows"; none when stream_rows is off or both are
 * empty) for a run of @p grid.  With opts.resume, the rows a
 * matching file holds are first merged into @p points and @p done
 * (loadSweepRows), its torn tail is cut off and @p out appends;
 * otherwise the file is truncated to a fresh header.  @return the
 * rows merged from disk.
 */
size_t openSweepRows(std::ofstream &out, const SweepGrid &grid,
                     const SweepOptions &opts,
                     std::vector<SweepPoint> &points,
                     std::vector<uint8_t> &done);

/**
 * @return a sensible worker count for interactive sweeps: the
 * QSURF_THREADS environment variable when set to a positive integer
 * (unclamped, for batch machines), otherwise the hardware
 * concurrency clamped to [1, 8].  (Results are identical at any
 * thread count; this only affects wall-clock time.)
 */
int defaultThreads();

} // namespace qsurf::engine

#endif // QSURF_ENGINE_SWEEP_H
