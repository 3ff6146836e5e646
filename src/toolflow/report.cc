#include <sstream>

#include "common/table.h"
#include "engine/registry.h"
#include "toolflow/toolflow.h"

namespace qsurf::toolflow {

std::string
format(const Report &report)
{
    std::ostringstream os;

    Table frontend("Frontend analysis: " + report.app_name);
    frontend.header({"metric", "value"});
    frontend.addRow("logical ops (KQ)", report.counts.total);
    frontend.addRow("2-qubit ops", report.counts.two_qubit);
    frontend.addRow("T gates", report.counts.t_gates);
    frontend.addRow("critical-path depth", report.parallelism.depth);
    frontend.addRow("parallelism factor",
                    Table::fixed(report.parallelism.factor, 2));
    frontend.addRow("target pL",
                    Table::num(report.target_logical_error));
    frontend.addRow("code distance d", report.code_distance);
    frontend.print(os);

    const engine::Metrics &pl = report.planar;
    const engine::Metrics &dd = report.double_defect;
    // Integer counters print as integers.
    auto count = [](const engine::Metrics &m, const char *name) {
        return static_cast<uint64_t>(m.extra(name));
    };
    Table backends("Backend comparison (planar vs double-defect)");
    backends.header({"metric", "planar", "double-defect"});
    backends.addRow("schedule cycles", pl.schedule_cycles,
                    dd.schedule_cycles);
    backends.addRow("critical path", pl.critical_path_cycles,
                    dd.critical_path_cycles);
    backends.addRow("sched/CP ratio", Table::fixed(pl.ratio(), 2),
                    Table::fixed(dd.ratio(), 2));
    backends.addRow("mesh utilization", std::string("-"),
                    Table::fixed(dd.extra("mesh_utilization"), 3));
    backends.addRow("teleports", count(pl, "teleports"),
                    static_cast<uint64_t>(0));
    backends.addRow("peak live EPRs", count(pl, "peak_live_eprs"),
                    static_cast<uint64_t>(0));
    backends.addRow("physical qubits", Table::num(pl.physical_qubits),
                    Table::num(dd.physical_qubits));
    backends.addRow("seconds", Table::num(pl.seconds),
                    Table::num(dd.seconds));
    backends.addRow("space-time (qubit-s)", Table::num(pl.spaceTime()),
                    Table::num(dd.spaceTime()));
    backends.print(os);

    // Any further registry backends the config requested (e.g. the
    // lattice-surgery simulator) render uniformly from their engine
    // metrics.
    bool any_extra = false;
    Table extras("Additional backends");
    extras.header({"backend", "schedule cycles", "sched/CP",
                   "physical qubits", "space-time (qubit-s)"});
    for (const engine::Metrics &m : report.backend_metrics) {
        if (m.backend == engine::backends::planar
            || m.backend == engine::backends::double_defect)
            continue;
        any_extra = true;
        extras.addRow(m.backend, m.schedule_cycles,
                      Table::fixed(m.ratio(), 2),
                      Table::num(m.physical_qubits),
                      Table::num(m.spaceTime()));
    }
    if (any_extra)
        extras.print(os);

    os << "recommended code: "
       << qec::codeKindName(report.recommended()) << "\n";
    return os.str();
}

} // namespace qsurf::toolflow
