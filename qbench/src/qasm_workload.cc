/**
 * @file
 * qasm-compile: a seeded corpus of QASM texts, each compiled cold
 * (no PrepareCache, as one qasm_compiler invocation would) through
 * toolflow::runQasm.  Here the frontend and the prepare layers do the
 * work and the contended claim loop never runs.
 */


#include "bench.h"
#include "common/arena.h"
#include "corpus.h"
#include "circuit/decompose.h"
#include "circuit/peephole.h"
#include "circuit/schedule.h"
#include "engine/registry.h"
#include "qasm/flatten.h"
#include "qasm/parser.h"
#include "qec/code.h"

namespace qbench {

namespace {

/** @return the statistics of one compile: frontend counts, chosen
 *  distance and every backend's metrics. */
std::vector<OpStats>
reportStats(const std::string &id, const qsurf::toolflow::Report &r)
{
    std::vector<OpStats> ops;
    OpStats front;
    front.id = id + "/frontend";
    front.values = {
        {"gates", static_cast<double>(r.counts.total)},
        {"t_gates", static_cast<double>(r.counts.t_gates)},
        {"two_qubit", static_cast<double>(r.counts.two_qubit)},
        {"depth", static_cast<double>(r.parallelism.depth)},
        {"parallelism", r.parallelism.factor},
        {"cancelled_pairs",
         static_cast<double>(r.peephole.cancelled_pairs)},
        {"merged_rotations",
         static_cast<double>(r.peephole.merged_rotations)},
        {"code_distance", static_cast<double>(r.code_distance)},
    };
    ops.push_back(std::move(front));
    for (const qsurf::engine::Metrics &m : r.backend_metrics)
        ops.push_back(statsOf(id + "/" + m.backend, m));
    return ops;
}

/**
 * The traced replica of toolflow::runQasm's cold path: parse,
 * flatten, peephole, decompose and analyze, then per backend an
 * explicit buildArtifact + run(item, artifact) — each call in a
 * span, under a "toolflow" span whose self time is the residual.
 */
qsurf::toolflow::Report
tracedCompile(const corpus::QasmProgram &p, Tracer &tracer,
              LayerValues &values)
{
    using namespace qsurf;
    Tracer::Scope toolflow_span(tracer, "toolflow");
    const toolflow::Config &config = p.config;
    toolflow::Report report;

    qasm::Program prog;
    {
        Tracer::Scope s(tracer, "qasm.parse");
        prog = qasm::parse(p.source);
    }
    circuit::Circuit logical;
    {
        Tracer::Scope s(tracer, "qasm.flatten");
        logical = qasm::flatten(prog);
    }
    report.app_name = logical.name().empty() ? "circuit" : logical.name();
    circuit::Circuit optimized;
    if (config.run_peephole) {
        Tracer::Scope s(tracer, "circuit.peephole");
        optimized = circuit::peephole(logical, &report.peephole);
    } else {
        optimized = logical;
    }
    circuit::Circuit circ;
    {
        Tracer::Scope s(tracer, "circuit.decompose");
        circ = circuit::decompose(optimized, config.decompose);
    }
    report.counts = circ.counts();
    {
        Tracer::Scope s(tracer, "circuit.parallelism");
        report.parallelism = circuit::parallelismProfile(circ);
    }
    values["qasm.bytes"] += static_cast<double>(p.source.size());
    values["circuit.gates_out"] += static_cast<double>(circ.size());
    values["circuit.peephole_rewrites"] +=
        static_cast<double>(report.peephole.cancelled_pairs
                            + report.peephole.merged_rotations);

    auto kq = static_cast<double>(report.counts.total);
    report.code_distance = config.force_distance > 0
        ? config.force_distance
        : qec::CodeModel::chooseDistance(config.tech.p_physical, kq);

    engine::WorkItem item;
    item.app = config.app;
    item.app_name = report.app_name;
    item.circuit = &circ;
    item.config.tech = config.tech;
    item.config.code_distance = report.code_distance;
    item.config.policy = static_cast<int>(config.policy);
    item.config.epr_window_steps = config.epr_window_steps;
    item.config.num_simd_regions = config.num_simd_regions;
    item.config.hybrid_arbiter = config.hybrid_arbiter;
    item.config.layout_objective = config.layout_objective;
    item.config.lane_spacing = config.lane_spacing;
    item.config.defect_density = config.defect_density;
    item.config.defect_seed = config.defect_seed;
    item.config.defect_spec = config.defect_spec;
    item.config.seed = config.seed;

    const std::vector<std::string> default_backends{
        engine::backends::planar, engine::backends::double_defect};
    Arena arena;
    for (const std::string &name : config.backends.empty()
             ? default_backends
             : config.backends) {
        arena.reset();
        Arena::Scope arena_scope(&arena);
        const engine::Backend &backend =
            engine::Registry::global().get(name);
        const std::string layer = layerOf(name);
        backend.prepare(item);
        std::shared_ptr<const engine::PreparedArtifact> artifact;
        if (layer != "estimate") {
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
        report.backend_metrics.push_back(std::move(m));
    }
    return report;
}

} // namespace

Result
runQasmCompile(const Options &opts)
{
    Result result;
    const std::vector<corpus::QasmProgram> programs =
        corpus::qasmCorpus(opts.seed);
    Reference reference(opts);
    const double setup_s = setupSeconds(opts);
    if (opts.setup_only) {
        result.metrics.push_back({"setup_s", setup_s, "s"});
        return result;
    }

    std::vector<double> latencies_ms;
    std::vector<LayerValues> layers;
    auto pass = [&](bool traced) {
        std::vector<OpStats> ops;
        Tracer tracer;
        LayerValues values;
        const Clock::time_point start = Clock::now();
        for (const corpus::QasmProgram &p : programs) {
            qsurf::toolflow::Report report;
            if (traced) {
                report = tracedCompile(p, tracer, values);
            } else {
                const Clock::time_point t = Clock::now();
                report = qsurf::toolflow::runQasm(p.source, p.config);
                latencies_ms.push_back(msBetween(t, Clock::now()));
            }
            for (OpStats &s : reportStats(p.id, report))
                ops.push_back(std::move(s));
        }
        reference.check(ops, result);
        if (!traced)
            return;
        const double wall_ms = msBetween(start, Clock::now());
        chargeSelfTimes(tracer, wall_ms, "toolflow", "toolflow.residual_ms",
                        values, result.problems);
        values["qasm.parse_mb_per_s"] = values["qasm.parse_ms"] > 0
            ? values["qasm.bytes"] / 1e6
                / (values["qasm.parse_ms"] / 1e3)
            : 0;
        deriveRatios(values);
        keepSpans(static_cast<int>(layers.size()), 0, tracer);
        layers.push_back(std::move(values));
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
