#include "surgery/backend.h"

#include <cmath>
#include <memory>
#include <sstream>

#include "common/logging.h"
#include "estimate/lattice_surgery.h"
#include "qec/code.h"
#include "surgery/chain_scheduler.h"

namespace qsurf::surgery {

namespace {

/** Lattice-surgery chain simulation on the patch machine. */
class SurgerySimBackend : public engine::Backend
{
  public:
    std::string
    name() const override
    {
        return engine::backends::surgery_sim;
    }

    qec::CodeKind code() const override { return qec::CodeKind::Planar; }

    void
    prepare(const engine::WorkItem &item) const override
    {
        Backend::prepare(item);
        partition::LayoutObjective objective =
            partition::layoutObjective(item.config.layout_objective);
        fatalIf(objective == partition::LayoutObjective::CorridorLanes
                    && item.config.lane_spacing < 1,
                "lane_spacing must be >= 1 with the corridor+lanes "
                "objective, got ", item.config.lane_spacing);
    }

    engine::Metrics
    run(const engine::WorkItem &item) const override
    {
        return run(item, nullptr);
    }

    std::string
    artifactKey(const engine::WorkItem &item) const override
    {
        return patchArtifactKey(item);
    }

    std::shared_ptr<const engine::PreparedArtifact>
    buildArtifact(const engine::WorkItem &item) const override
    {
        return buildPatchArtifact(item);
    }

    engine::Metrics
    run(const engine::WorkItem &item,
        const engine::PreparedArtifact *artifact) const override
    {
        SurgeryOptions opts;
        opts.fill(item);
        int d = opts.code_distance;
        // Same convention as the braid backend: Policies 2+ use the
        // interaction-aware layout, below that the naive one.
        opts.optimized_layout = item.config.policy >= 2;
        opts.layout_objective =
            partition::layoutObjective(item.config.layout_objective);
        opts.lane_spacing = item.config.lane_spacing;
        SurgeryResult r;
        if (artifact) {
            auto *a = dynamic_cast<const PatchArtifact *>(artifact);
            panicIf(!a, "backend '", name(),
                    "' was handed an artifact of the wrong type");
            r = scheduleSurgery(*item.circuit, opts, a->prep);
        } else {
            r = scheduleSurgery(*item.circuit, opts);
        }

        engine::Metrics m;
        m.backend = name();
        m.code = code();
        m.code_distance = d;
        m.schedule_cycles = r.schedule_cycles;
        m.critical_path_cycles = r.critical_path_cycles;
        // Dedicated ancilla lanes widen the mesh; charge the extra
        // area against the machine's qubit budget.
        m.physical_qubits = surgeryPhysicalQubits(
            static_cast<double>(item.circuit->numQubits()), d,
            1.2 * r.lane_area_factor);
        m.seconds = static_cast<double>(r.schedule_cycles)
            * item.config.tech.surfaceCycleNs() * 1e-9;
        m.set("mesh_utilization", r.mesh_utilization);
        m.set("chains_placed",
              static_cast<double>(r.chains_placed));
        m.set("placement_failures",
              static_cast<double>(r.placement_failures));
        m.set("transpose_fallbacks",
              static_cast<double>(r.transpose_fallbacks));
        m.set("bfs_detours", static_cast<double>(r.bfs_detours));
        m.set("drops", static_cast<double>(r.drops));
        m.set("magic_starvations",
              static_cast<double>(r.magic_starvations));
        m.set("total_chain_tiles",
              static_cast<double>(r.total_chain_tiles));
        m.set("max_chain_tiles",
              static_cast<double>(r.max_chain_tiles));
        m.set("peak_live_chains",
              static_cast<double>(r.peak_live_chains));
        m.set("avg_live_chains", r.avg_live_chains);
        m.set("layout_cost", r.layout_cost);
        m.set("corridor_cost", r.corridor_cost);
        m.set("lane_area_factor", r.lane_area_factor);
        engine::setListMetrics(m, r, item);
        return m;
    }
};

/** Analytic lattice-surgery model (Section 8.2). */
class SurgeryModelBackend : public engine::Backend
{
  public:
    std::string
    name() const override
    {
        return engine::backends::surgery_model;
    }

    qec::CodeKind code() const override { return qec::CodeKind::Planar; }

    bool needsCircuit() const override { return false; }

    void
    prepare(const engine::WorkItem &item) const override
    {
        Backend::prepare(item);
        fatalIf(item.config.kq <= 0 && !item.circuit,
                "backend '", name(), "' needs a computation size "
                "(config.kq) or a circuit to derive one from");
    }

    engine::Metrics
    run(const engine::WorkItem &item) const override
    {
        estimate::ResourceModel model(item.app, item.config.tech);
        double kq = item.logicalOps();
        estimate::ResourceEstimate e =
            estimate::estimateSurgery(model, kq);

        engine::Metrics m;
        m.backend = name();
        m.code = code();
        m.code_distance = e.code_distance;
        m.schedule_cycles =
            static_cast<uint64_t>(std::llround(e.total_cycles));
        m.critical_path_cycles = static_cast<uint64_t>(std::llround(
            e.total_cycles / e.congestion_inflation));
        m.physical_qubits = e.physical_qubits;
        m.seconds = e.seconds;
        m.set("kq", kq);
        m.set("logical_qubits", e.logical_qubits);
        m.set("total_tiles", e.total_tiles);
        m.set("logical_depth", e.logical_depth);
        m.set("step_cycles", e.step_cycles);
        m.set("congestion_inflation", e.congestion_inflation);
        m.set("total_cycles", e.total_cycles);
        return m;
    }
};

} // namespace

std::string
patchArtifactKey(const engine::WorkItem &item)
{
    const engine::RunConfig &c = item.config;
    std::ostringstream os;
    os << "patch/fp=" << std::hex << item.resolveFingerprint()
       << "/seed=" << c.seed << std::dec
       << "/d=" << item.resolveDistance()
       << "/opt=" << (c.policy >= 2 ? 1 : 0)
       << "/obj=" << c.layout_objective
       << "/lane=" << c.lane_spacing
       << "/ppf=" << PatchArchOptions{}.patches_per_factory
       << engine::defectKeySuffix(c.defectParams());
    return os.str();
}

std::shared_ptr<const engine::PreparedArtifact>
buildPatchArtifact(const engine::WorkItem &item)
{
    // The SurgeryOptions defaults carry patches_per_factory; the
    // hybrid scheduler's patchArchOptions() maps its own options to
    // the very same PatchArchOptions, so this artifact serves both.
    SurgeryOptions opts;
    opts.optimized_layout = item.config.policy >= 2;
    opts.layout_objective =
        partition::layoutObjective(item.config.layout_objective);
    opts.lane_spacing = item.config.lane_spacing;
    opts.seed = item.config.seed;
    opts.defects = item.config.defectParams();
    return std::make_shared<const PatchArtifact>(
        *item.circuit, patchArchOptions(opts));
}

double
surgeryPhysicalQubits(double logical_qubits, int d,
                      double tile_factor)
{
    // Planar patches plus boundary-ancilla strips, with the
    // double-defect architectural overhead (factory patches, no EPR
    // buffers/channels) — the same accounting as
    // estimate::estimateSurgery.
    return logical_qubits
        * qec::spaceOverheadFactor(qec::CodeKind::DoubleDefect)
        * tile_factor
        * static_cast<double>(qec::planarTileQubits(d));
}

void
registerSurgeryBackends(engine::Registry &registry)
{
    registry.add(std::make_unique<SurgerySimBackend>());
    registry.add(std::make_unique<SurgeryModelBackend>());
}

} // namespace qsurf::surgery
