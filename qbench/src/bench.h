/**
 * @file
 * Shared pieces of the qbench driver: options, the result record,
 * output checks, the heap-allocation counter, the span tracer and
 * the timing loop every workload runs under.
 *
 * qbench drives qsurf only through its public entry points
 * (SweepDriver::run, toolflow::runQasm, wire::Client against the
 * compile_server binary).  The traced run re-issues the same work as
 * calls into each layer's public functions, wrapped in spans recorded
 * here, so per-layer time is charged without touching src/.
 */

#ifndef QBENCH_BENCH_H
#define QBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/backend.h"

namespace qbench {

using Clock = std::chrono::steady_clock;

/** @return milliseconds from @p a to @p b. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Command-line options of one qbench invocation. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;

    /** Stop after set-up and report only setup_s (run.py repeats
     *  set-up in separate processes and takes the median). */
    bool setup_only = false;

    /** CLOCK_MONOTONIC nanoseconds at which the launcher spawned
     *  this process; < 0 measures set-up from main() instead. */
    int64_t t0_ns = -1;

    /** When non-empty, write the run's statistics as the expected
     *  file to this path instead of checking against one. */
    std::string record_path;

    /** Directory holding <workload>.json expected files. */
    std::string expected_dir;

    /** Path of the compile_server binary (service-mix). */
    std::string server_path;

    /** Where the traced run writes its spans (JSON lines). */
    std::string spans_path;
};

/** The seed the expected files were recorded with. */
constexpr uint64_t kDefaultSeed = 1;

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Everything one invocation prints. */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;

    /** Sample count behind each metric that is a statistic. */
    std::map<std::string, uint64_t> samples;

    /** Free-form diagnostic facts printed on the "info" line. */
    std::map<std::string, double> info;

    /** Output-check failures (each also counted in failed). */
    std::vector<std::string> problems;
};

// ---------------------------------------------------------------- checks

/** The simulated statistics of one operation, for output checks. */
struct OpStats
{
    std::string id;
    std::vector<std::pair<std::string, double>> values;
};

/**
 * @return every Metrics field and extra of @p m except the
 * fast-forward counters (ff_*), which describe how the simulator got
 * to its result, not the result.
 */
OpStats statsOf(const std::string &id, const qsurf::engine::Metrics &m);

/** @return a one-line description of how @p got differs from
 *  @p want, or "" when equal. */
std::string diffStats(const OpStats &want, const OpStats &got);

/**
 * Reference statistics of a workload: the expected file for the
 * default seed, otherwise the first repetition of this run.
 */
class Reference
{
  public:
    /** Load <dir>/<workload>.json when @p seed is the default seed
     *  and the file exists; otherwise start empty. */
    Reference(const Options &opts);

    /**
     * Check @p ops against the reference (adopting them as the
     * reference when it is empty), counting every operation in
     * @p result.attempted and every mismatch in failed / problems.
     */
    void check(const std::vector<OpStats> &ops, Result &result);

    /** Write the adopted reference as an expected file. */
    void write(const std::string &path) const;

  private:
    std::map<std::string, OpStats> by_id;
    std::vector<std::string> order;
};

// ------------------------------------------------------------ allocations

/** @return cumulative operator-new calls of this process. */
uint64_t heapAllocs();

/**
 * Per-layer values of one traced pass, keyed by metric name; the
 * run reports the median of each across its traced passes.
 */
using LayerValues = std::map<std::string, double>;

// ----------------------------------------------------------------- tracer

/** One recorded span. */
struct Span
{
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;      ///< Index of the enclosing span, or -1.
    uint64_t request = 0; ///< Request id (service-mix), else 0.
};

/**
 * Spans of one thread's timeline, kept in memory until the run ends.
 * Not thread-safe: each thread records into its own Tracer.
 */
class Tracer
{
  public:
    /** Open a span nested in the innermost open one. */
    int begin(const std::string &name, uint64_t request = 0);

    /** Close span @p id (must be the innermost open one). */
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const std::string &name,
              uint64_t request = 0)
            : tracer(tracer), id(tracer.begin(name, request))
        {
        }
        ~Scope() { tracer.end(id); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer;
        int id;
    };

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/**
 * Self time (duration minus the part covered by child spans) of
 * every span name on one timeline, in ms, plus the "unspanned" time
 * of the timeline's @p wall_ms not covered by any root span.
 * Checks that spans nest and that self times are non-negative;
 * violations are appended to @p problems.
 */
std::map<std::string, double>
selfTimes(const Tracer &tracer, double wall_ms,
          std::vector<std::string> &problems);

/**
 * Charge the self time of every span of @p tracer to the per-layer
 * metric "<span name>_ms", and the @p root span's self time plus the
 * unspanned time to @p residual.  Together with selfTimes()' own
 * checks this is the coverage check: the charged values sum to the
 * traced wall, and a span whose metric is not declared is a problem,
 * so no time is dropped.
 */
void chargeSelfTimes(const Tracer &tracer, double wall_ms,
                     const std::string &root, const std::string &residual,
                     LayerValues &values, std::vector<std::string> &problems);

/** Keep the spans of @p tracer, timeline @p timeline of traced pass
 *  @p pass, in memory until writeSpans(). */
void keepSpans(int pass, int timeline, const Tracer &tracer);

/**
 * Write every kept span to @p path, one JSON object per line: pass,
 * timeline, name, start_us and end_us (from the first kept span),
 * parent (index within its timeline, -1 for a root) and request.
 */
void writeSpans(const std::string &path);

// ------------------------------------------------------------ the loop

/** Per-pass observations of the timing loop. */
struct PassLog
{
    std::vector<double> untraced_s; ///< Wall of each untraced pass.
    std::vector<double> traced_s;   ///< Wall of each traced pass.
};

/**
 * Run @p pass (called with traced = false / true) for the options'
 * time budget: untraced passes only without --trace, alternating
 * untraced and traced passes with it.  At least one pass of each
 * kind runs, and a new pass starts only while the elapsed time plus
 * the previous pass's wall stays within the budget.
 */
PassLog timeLoop(const Options &opts,
                 const std::function<void(bool traced)> &pass);

// ----------------------------------------------------------- reporting

/** @return the @p q-quantile of @p v (linear interpolation). */
double quantile(std::vector<double> v, double q);

/** @return the median of @p v. */
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * Add every per-layer metric to @p result, in declared order, from
 * the per-pass medians of @p passes; layers a workload never runs
 * report 0.  @p totals are values already aggregated over the whole
 * run (counts), which win over per-pass medians.
 */
void addPerLayer(Result &result, const std::vector<LayerValues> &passes,
                 const LayerValues &totals);

/** Add the end-to-end metrics (setup_s, wall_s, latencies,
 *  ok_share, peak_rss_mb) in declared order. */
void addEndToEnd(Result &result, double setup_s,
                 const std::vector<double> &pass_walls_s,
                 const std::vector<double> &latencies_ms,
                 double peak_rss_mb);

/** @return the span name's layer, e.g. "surgery" for
 *  "planar/surgery-sim". */
std::string layerOf(const std::string &backend);

/**
 * Add the scheduler / planar counters of one backend result to
 * @p values under its layer's names (placements, failures, drops,
 * cycles, ...).
 */
void addBackendCounters(LayerValues &values, const std::string &layer,
                        const qsurf::engine::Metrics &m);

/**
 * Derive the ratio metrics (claim_success_ratio, ns_per_cycle,
 * ff_skip_ratio) of every scheduler layer from the summed counters
 * in @p values.
 */
void deriveRatios(LayerValues &values);

/** @return this process's peak resident set in MB. */
double selfPeakRssMb();

// ------------------------------------------------------------ workloads

/** Seconds from process launch (or main) to the first timed op. */
double setupSeconds(const Options &opts);

Result runContendedSweep(const Options &opts);
Result runQasmCompile(const Options &opts);
Result runServiceMix(const Options &opts);

} // namespace qbench

#endif // QBENCH_BENCH_H
