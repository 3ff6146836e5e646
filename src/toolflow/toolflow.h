/**
 * @file
 * The end-to-end toolflow of Figure 4: logical compilation frontend,
 * code-distance selection, and both optimization/simulation backends
 * (braided double-defect and Multi-SIMD planar), producing the
 * space-time comparison the paper's evaluation is built on.
 *
 * This is the library's primary public entry point:
 *
 *   auto circ = qsurf::apps::generate(qsurf::apps::AppKind::SQ);
 *   auto report = qsurf::toolflow::run(circ);
 *   std::cout << qsurf::toolflow::format(report);
 */

#ifndef QSURF_TOOLFLOW_TOOLFLOW_H
#define QSURF_TOOLFLOW_TOOLFLOW_H

#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/decompose.h"
#include "circuit/peephole.h"
#include "circuit/schedule.h"
#include "engine/backend.h"
#include "qec/code.h"
#include "qec/technology.h"

namespace qsurf::toolflow {

/**
 * Configuration of one toolflow run: the engine run parameters
 * (technology, policy, seed, fabric damage, ...) every dispatched
 * backend receives, plus the toolflow's own frontend and output
 * settings.  The distance input is `force_distance`: the inherited
 * `code_distance` must stay 0, and the inherited `trace` null (use
 * `trace_path`), or run() fails rather than ignore them.
 */
struct Config : engine::RunConfig
{
    /** Gate decomposition settings. */
    circuit::DecomposeConfig decompose;

    /** Run logical-level peephole optimization before decomposing. */
    bool run_peephole = true;

    /**
     * Route the frontend (parse/peephole/decompose/analyze) and the
     * per-backend machine layouts through the process-wide
     * PrepareCache, so repeated runs of one program warm-start.
     * Reports are bit-identical either way.
     */
    bool use_cache = true;

    /** Code distance override; 0 selects from KQ and pP. */
    int force_distance = 0;

    /**
     * Engine backends to dispatch to, by registry name; empty runs
     * the two simulation backends the paper compares ("planar" and
     * "double-defect").
     */
    std::vector<std::string> backends;

    /**
     * Application scaling profile for analytic model backends in
     * `backends`; the simulation backends ignore it (they work from
     * the circuit alone).
     */
    apps::AppKind app = apps::AppKind::SQ;

    /**
     * When non-empty, record structured events from every backend
     * run and write them here as Chrome trace-event JSON (load it
     * with Perfetto), plus a "<stem>.heatmap.json" per-link mesh
     * congestion heatmap next to it.  Tracing never changes
     * results.
     */
    std::string trace_path;

    /**
     * When non-empty, write the aggregate counter/histogram registry
     * here as JSON: event-derived aggregates of this run's backends
     * (when tracing) merged with the process-wide wall-clock
     * registry (service / sweep telemetry).
     */
    std::string metrics_path;
};

/** Full report of one toolflow run. */
struct Report
{
    std::string app_name;
    circuit::OpCounts counts;               ///< Post-decomposition.
    circuit::ParallelismProfile parallelism;
    circuit::PeepholeStats peephole;        ///< Frontend rewrites.
    int code_distance = 0;
    double target_logical_error = 0;
    engine::Metrics planar;        ///< The "planar" run, if any.
    engine::Metrics double_defect; ///< The "double-defect" run, if any.

    /**
     * Uniform engine metrics of every backend that ran, in dispatch
     * order (includes any extra Config::backends entries).
     */
    std::vector<engine::Metrics> backend_metrics;

    /** @return the code with the smaller space-time product. */
    qec::CodeKind
    recommended() const
    {
        return planar.spaceTime() <= double_defect.spaceTime()
            ? qec::CodeKind::Planar
            : qec::CodeKind::DoubleDefect;
    }
};

/** Run the full toolflow on a logical circuit. */
Report run(const circuit::Circuit &logical, const Config &config = {});

/** Parse QASM source, flatten, and run the full toolflow. */
Report runQasm(const std::string &qasm_source,
               const Config &config = {});

/** Render a report as a human-readable multi-table summary. */
std::string format(const Report &report);

} // namespace qsurf::toolflow

#endif // QSURF_TOOLFLOW_TOOLFLOW_H
