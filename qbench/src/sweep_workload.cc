/**
 * @file
 * contended-sweep: the paper's contended parallel apps (IM-semi,
 * SHA-1) at d=15 on the three mesh schedulers, through
 * SweepDriver::run on one thread.  One pass runs every grid once
 * against a fresh PrepareCache, so each pass does identical work.
 */

#include <map>
#include <tuple>

#include "bench.h"
#include "common/arena.h"
#include "corpus.h"
#include "circuit/decompose.h"
#include "circuit/schedule.h"
#include "engine/registry.h"
#include "service/cache.h"

namespace qbench {

namespace {

std::string
pointId(const std::string &backend, const qsurf::engine::AppPoint &app,
        size_t app_index)
{
    return layerOf(backend) + "/"
        + qsurf::apps::appSpec(app.kind).name + "{"
        + std::to_string(app.gen.problem_size) + ","
        + std::to_string(app.gen.max_iterations) + "}#"
        + std::to_string(app_index);
}

/**
 * The traced replica of SweepDriver::run for a single-backend grid:
 * the same generate, decompose, prepare and run calls, each in a
 * span, under an "engine" span whose self time is the driver's
 * residual.
 */
void
tracedGrid(const qsurf::engine::SweepGrid &grid, Tracer &tracer,
           LayerValues &values, std::vector<OpStats> &ops)
{
    using namespace qsurf;
    Tracer::Scope engine_span(tracer, "engine");
    const engine::Backend &backend =
        engine::Registry::global().get(grid.backends.at(0));
    const std::string layer = layerOf(backend.name());

    std::map<std::tuple<int, int, int>, circuit::Circuit> programs;
    Arena arena;
    for (size_t a = 0; a < grid.apps.size(); ++a) {
        const engine::AppPoint &app = grid.apps[a];
        auto key = std::make_tuple(static_cast<int>(app.kind),
                                   app.gen.problem_size,
                                   app.gen.max_iterations);
        auto it = programs.find(key);
        if (it == programs.end()) {
            circuit::Circuit logical;
            {
                Tracer::Scope s(tracer, "apps.generate");
                logical = apps::generate(app.kind, app.gen);
            }
            circuit::Circuit decomposed;
            {
                Tracer::Scope s(tracer, "circuit.decompose");
                decomposed = circuit::decompose(logical);
            }
            {
                Tracer::Scope s(tracer, "circuit.parallelism");
                circuit::parallelismProfile(decomposed);
            }
            values["circuit.gates_out"] += decomposed.size();
            it = programs.emplace(key, std::move(decomposed)).first;
        }

        engine::WorkItem item;
        item.app = app.kind;
        item.app_name = apps::appSpec(app.kind).name;
        item.circuit = &it->second;
        item.circuit_fingerprint = circuit::fingerprint(it->second);
        item.config = grid.base;
        item.config.code_distance = grid.distances.at(0);
        item.config.seed = engine::mixSeed(grid.base.seed, a);
        backend.prepare(item);

        arena.reset();
        Arena::Scope arena_scope(&arena);
        std::shared_ptr<const engine::PreparedArtifact> artifact;
        {
            Tracer::Scope s(tracer, layer + ".prepare");
            artifact = backend.buildArtifact(item);
        }
        engine::Metrics m;
        uint64_t allocs = heapAllocs();
        {
            Tracer::Scope s(tracer, layer + ".run");
            m = backend.run(item, artifact.get());
        }
        values[layer + ".heap_allocs"] +=
            static_cast<double>(heapAllocs() - allocs);
        addBackendCounters(values, layer, m);
        ops.push_back(statsOf(pointId(backend.name(), app, a), m));
    }
}

} // namespace

Result
runContendedSweep(const Options &opts)
{
    Result result;
    const std::vector<qsurf::engine::SweepGrid> grids =
        corpus::contendedGrids(opts.seed);
    Reference reference(opts);
    const double setup_s = setupSeconds(opts);
    if (opts.setup_only) {
        result.metrics.push_back({"setup_s", setup_s, "s"});
        return result;
    }

    qsurf::engine::SweepDriver driver;
    std::vector<double> latencies_ms;
    std::vector<LayerValues> layers;
    auto pass = [&](bool traced) {
        std::vector<OpStats> ops;
        if (!traced) {
            qsurf::service::PrepareCache cache;
            for (const qsurf::engine::SweepGrid &grid : grids) {
                qsurf::engine::SweepOptions so;
                so.num_threads = 1;
                so.cache = &cache;
                for (const qsurf::engine::SweepPoint &p :
                     driver.run(grid, so)) {
                    latencies_ms.push_back(p.prepare_ms + p.wall_ms);
                    ops.push_back(statsOf(
                        pointId(p.backend, grid.apps[p.app_index],
                                p.app_index),
                        p.metrics));
                }
            }
        } else {
            Tracer tracer;
            LayerValues values;
            const Clock::time_point start = Clock::now();
            for (const qsurf::engine::SweepGrid &grid : grids)
                tracedGrid(grid, tracer, values, ops);
            const double wall_ms = msBetween(start, Clock::now());
            chargeSelfTimes(tracer, wall_ms, "engine",
                            "engine.residual_ms", values,
                            result.problems);
            deriveRatios(values);
            keepSpans(static_cast<int>(layers.size()), 0, tracer);
            layers.push_back(std::move(values));
        }
        reference.check(ops, result);
    };
    PassLog log = timeLoop(opts, pass);

    if (!opts.record_path.empty())
        reference.write(opts.record_path);
    if (!opts.trace) {
        addEndToEnd(result, setup_s, log.untraced_s, latencies_ms,
                    selfPeakRssMb());
        return result;
    }
    LayerValues totals;
    totals["trace.wall_s"] = median(log.traced_s);
    totals["trace.overhead_s"] =
        median(log.traced_s) - median(log.untraced_s);
    addPerLayer(result, layers, totals);
    return result;
}

} // namespace qbench
