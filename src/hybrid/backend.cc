#include "hybrid/backend.h"

#include <memory>

#include "common/logging.h"
#include "estimate/lattice_surgery.h"
#include "estimate/model.h"
#include "hybrid/scheduler.h"
#include "surgery/backend.h"

namespace qsurf::hybrid {

namespace {

/** Mixed-scheme simulation on the shared patch machine. */
class HybridBackend : public engine::Backend
{
  public:
    std::string
    name() const override
    {
        return engine::backends::hybrid_mixed;
    }

    qec::CodeKind code() const override { return qec::CodeKind::Planar; }

    void
    prepare(const engine::WorkItem &item) const override
    {
        Backend::prepare(item);
        fatalIf(item.config.hybrid_arbiter < 0
                    || item.config.hybrid_arbiter >= num_arbiters,
                "hybrid arbiter must be in [0, ", num_arbiters,
                "), got ", item.config.hybrid_arbiter);
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

    /** Shared with the surgery-sim backend on purpose: the two
     *  simulators build identical patch machines from a WorkItem,
     *  so one cached artifact serves both. */
    std::string
    artifactKey(const engine::WorkItem &item) const override
    {
        return surgery::patchArtifactKey(item);
    }

    std::shared_ptr<const engine::PreparedArtifact>
    buildArtifact(const engine::WorkItem &item) const override
    {
        return surgery::buildPatchArtifact(item);
    }

    engine::Metrics
    run(const engine::WorkItem &item,
        const engine::PreparedArtifact *artifact) const override
    {
        HybridOptions opts;
        opts.fill(item);
        int d = opts.code_distance;

        // Price the arbitration from the same constants the
        // analytic design-space models sweep with.
        estimate::ModelConstants mk;
        estimate::SurgeryConstants sk;
        opts.arbiter =
            static_cast<ArbiterKind>(item.config.hybrid_arbiter);
        opts.rounds_per_hop = sk.rounds_per_hop;
        opts.swap_hop_cycles =
            item.config.tech.swapHopCycles(d);
        opts.braid_overhead_cycles = mk.braid_overhead_cycles;
        opts.teleport_overhead_cycles = mk.teleport_cycles;
        opts.mesh_saturation = mk.dd_max_utilization;
        opts.epr_bandwidth = item.config.epr_bandwidth;
        HybridResult r;
        if (artifact) {
            auto *a = dynamic_cast<const surgery::PatchArtifact *>(
                artifact);
            panicIf(!a, "backend '", name(),
                    "' was handed an artifact of the wrong type");
            r = scheduleHybrid(*item.circuit, opts, a->prep);
        } else {
            r = scheduleHybrid(*item.circuit, opts);
        }

        engine::Metrics m;
        m.backend = name();
        m.code = code();
        m.code_distance = d;
        m.schedule_cycles = r.schedule_cycles;
        m.critical_path_cycles = r.critical_path_cycles;
        // Patch machine with boundary strips plus the EPR channel
        // rails of the teleport overlay, widened by any dedicated
        // ancilla lanes.
        m.physical_qubits = surgery::surgeryPhysicalQubits(
            static_cast<double>(item.circuit->numQubits()), d,
            1.3 * r.lane_area_factor);
        m.seconds = static_cast<double>(r.schedule_cycles)
            * item.config.tech.surfaceCycleNs() * 1e-9;
        m.set("arbiter",
              static_cast<double>(item.config.hybrid_arbiter));
        m.set("braid_ops", static_cast<double>(r.braid_ops));
        m.set("teleport_ops", static_cast<double>(r.teleport_ops));
        m.set("surgery_ops", static_cast<double>(r.surgery_ops));
        m.set("local_ops", static_cast<double>(r.local_ops));
        m.set("arbiter_fallbacks",
              static_cast<double>(r.arbiter_fallbacks));
        m.set("mesh_utilization", r.mesh_utilization);
        m.set("peak_busy_links",
              static_cast<double>(r.peak_busy_links));
        m.set("placement_failures",
              static_cast<double>(r.placement_failures));
        m.set("transpose_fallbacks",
              static_cast<double>(r.transpose_fallbacks));
        m.set("bfs_detours", static_cast<double>(r.bfs_detours));
        m.set("drops", static_cast<double>(r.drops));
        m.set("magic_starvations",
              static_cast<double>(r.magic_starvations));
        m.set("peak_live_eprs",
              static_cast<double>(r.peak_live_eprs));
        m.set("avg_live_eprs", r.avg_live_eprs);
        m.set("layout_cost", r.layout_cost);
        m.set("corridor_cost", r.corridor_cost);
        m.set("lane_area_factor", r.lane_area_factor);
        engine::setListMetrics(m, r, item);
        return m;
    }
};

} // namespace

void
registerHybridBackend(engine::Registry &registry)
{
    registry.add(std::make_unique<HybridBackend>());
}

} // namespace qsurf::hybrid
