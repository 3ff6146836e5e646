#include "toolflow/toolflow.h"

#include <fstream>
#include <memory>

#include "common/arena.h"
#include "common/logging.h"
#include "engine/registry.h"
#include "obs/trace.h"
#include "qasm/flatten.h"
#include "qasm/parser.h"
#include "qec/factory.h"
#include "service/artifact.h"

namespace qsurf::toolflow {

Report
run(const circuit::Circuit &logical, const Config &config)
{
    fatalIf(logical.empty(), "toolflow needs a non-empty circuit");
    fatalIf(config.code_distance != 0,
            "toolflow takes its distance from force_distance, not "
            "code_distance");
    fatalIf(config.trace != nullptr,
            "toolflow traces through trace_path, not a recorder");
    config.tech.check();

    Report report;
    report.app_name =
        logical.name().empty() ? "circuit" : logical.name();

    // Frontend: optimize, decompose to Clifford+T and analyze
    // (Figure 4 left) — through the shared cache when enabled, so
    // repeated runs of one program pay the frontend once.
    service::PrepareCache *cache =
        config.use_cache ? &service::PrepareCache::global() : nullptr;
    std::shared_ptr<const service::CachedProgram> program;
    circuit::Circuit local_circ;
    const circuit::Circuit *circ = nullptr;
    uint64_t fingerprint = 0;
    if (cache) {
        program = service::cachedProgram(
            *cache, logical, config.decompose, config.run_peephole);
        report.peephole = program->peephole;
        report.counts = program->counts;
        report.parallelism = program->parallelism;
        circ = &program->circ;
        fingerprint = program->fingerprint;
    } else {
        circuit::Circuit optimized = config.run_peephole
            ? circuit::peephole(logical, &report.peephole)
            : logical;
        local_circ = circuit::decompose(optimized, config.decompose);
        report.counts = local_circ.counts();
        report.parallelism = circuit::parallelismProfile(local_circ);
        circ = &local_circ;
    }

    // Code-distance selection from the logical-op count and pP.
    auto kq = static_cast<double>(report.counts.total);
    report.target_logical_error =
        qec::CodeModel::targetLogicalError(kq);
    report.code_distance = config.force_distance > 0
        ? config.force_distance
        : qec::CodeModel::chooseDistance(config.tech.p_physical, kq);

    // One work item, dispatched over the engine registry: every
    // backend sees the same circuit, distance and seed.
    engine::WorkItem item;
    item.app = config.app;
    item.app_name = report.app_name;
    item.circuit = circ;
    item.circuit_fingerprint = fingerprint;
    item.config = config;
    item.config.code_distance = report.code_distance;

    const std::vector<std::string> default_backends{
        engine::backends::planar, engine::backends::double_defect};
    const std::vector<std::string> &names =
        config.backends.empty() ? default_backends : config.backends;

    // Observability sinks: one trace session spanning every backend
    // dispatched below, written out after the loop.
    const bool tracing =
        !config.trace_path.empty() || !config.metrics_path.empty();
    obs::TraceSession session;

    engine::Registry &registry = engine::Registry::global();
    size_t run_index = 0;
    // Scratch arena spanning the backend dispatches, reset between
    // them; scratch-aware callees (BFS working sets) bump-allocate
    // here instead of the heap.  Results are identical either way.
    Arena arena;
    for (const std::string &name : names) {
        arena.reset();
        Arena::Scope scope(&arena);
        const engine::Backend &backend = registry.get(name);
        backend.prepare(item);
        std::shared_ptr<const engine::PreparedArtifact> artifact;
        if (cache)
            artifact = service::fetchArtifact(*cache, backend, item);
        std::unique_ptr<obs::RunRecorder> rec;
        if (tracing) {
            rec = session.beginRun(run_index++, report.app_name,
                                   name);
            item.config.trace = rec.get();
        }
        engine::Metrics m = backend.run(item, artifact.get());
        if (rec) {
            item.config.trace = nullptr;
            session.endRun(std::move(rec));
        }
        if (m.backend == engine::backends::planar)
            report.planar = m;
        else if (m.backend == engine::backends::double_defect)
            report.double_defect = m;
        report.backend_metrics.push_back(std::move(m));
    }

    if (!config.trace_path.empty()) {
        std::ofstream os(config.trace_path);
        fatalIf(!os, "cannot open '", config.trace_path,
                "' for writing");
        session.writeTrace(os);
        std::string heat_path =
            obs::derivedPath(config.trace_path, "heatmap");
        std::ofstream hos(heat_path);
        fatalIf(!hos, "cannot open '", heat_path, "' for writing");
        session.writeHeatmap(hos);
    }
    if (!config.metrics_path.empty()) {
        std::ofstream os(config.metrics_path);
        fatalIf(!os, "cannot open '", config.metrics_path,
                "' for writing");
        session.writeMetrics(os, &obs::MetricsRegistry::global());
    }
    return report;
}

Report
runQasm(const std::string &qasm_source, const Config &config)
{
    if (config.use_cache) {
        // Keyed by a hash of the source text: repeated runs of one
        // QASM program skip the parse/flatten stage entirely.
        std::shared_ptr<const circuit::Circuit> circ =
            service::cachedQasmCircuit(
                service::PrepareCache::global(), qasm_source);
        return run(*circ, config);
    }
    qasm::Program prog = qasm::parse(qasm_source);
    circuit::Circuit circ = qasm::flatten(prog);
    return run(circ, config);
}

} // namespace qsurf::toolflow
