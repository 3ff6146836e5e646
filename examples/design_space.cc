/**
 * @file
 * Design-space explorer: "I want to run application X with N logical
 * operations on technology with error rate pP — which surface code
 * should I build, and what will it cost?"
 *
 *   $ ./design_space [app] [log10_ops] [p_physical]
 *
 * e.g. ./design_space sq 12 1e-5
 *
 * The numbers are read whole as JSON numbers: an unknown app or a
 * malformed number prints the usage line and exits 2, and a value
 * the models reject (pP outside (0, 1), say) exits 1.
 *
 * One declarative sweep grid (both model backends at one size) on
 * the engine's sweep driver — the same machinery the figure benches
 * run on.
 */

#include <cmath>
#include <iostream>

#include "common/json.h"
#include "common/logging.h"
#include "common/table.h"
#include "engine/sweep.h"
#include "estimate/crossover.h"

namespace {

using namespace qsurf;

int
usage()
{
    std::cerr << "usage: design_space [" << apps::kAppArgNames
              << "] [log10_ops] [p_physical]\n";
    return 2;
}

void
describe(const engine::Metrics &m, const char *label)
{
    Table t(label);
    t.header({"metric", "value"});
    t.addRow("code distance d", m.code_distance);
    t.addRow("logical qubits", Table::num(m.extra("logical_qubits")));
    t.addRow("total tiles (data+factories)",
             Table::num(m.extra("total_tiles")));
    t.addRow("physical qubits", Table::num(m.physical_qubits));
    t.addRow("congestion inflation",
             Table::fixed(m.extra("congestion_inflation"), 2));
    t.addRow("execution time (s)", Table::num(m.seconds));
    t.addRow("space-time (qubit-seconds)", Table::num(m.spaceTime()));
    t.print(std::cout);
}

/** Compare both codes for @p kind at 10^@p log_ops logical ops on
 *  physical error rate @p pp, and print the verdict. */
void
explore(apps::AppKind kind, double log_ops, double pp)
{
    double kq = std::pow(10.0, log_ops);

    engine::SweepGrid grid;
    grid.apps = {{kind, {}, ""}};
    grid.backends = {engine::backends::planar_model,
                     engine::backends::double_defect_model};
    grid.sizes = {kq};
    grid.base.tech.p_physical = pp;

    std::cout << "Application " << apps::appSpec(kind).name << ", "
              << Table::num(kq) << " logical ops, pP = "
              << Table::num(pp) << "\n\n";

    auto results = engine::SweepDriver().run(grid);
    const engine::Metrics &pl = results[0].metrics;
    const engine::Metrics &dd = results[1].metrics;

    describe(pl, "Planar code on the Multi-SIMD architecture");
    describe(dd, "Double-defect code on the tiled architecture");

    double spacetime = dd.spaceTime() / pl.spaceTime();
    std::cout << "qubits x time ratio (double-defect / planar): "
              << Table::fixed(spacetime, 2) << " -> build the "
              << (spacetime > 1 ? "PLANAR" : "DOUBLE-DEFECT")
              << " machine\n";

    auto x = estimate::crossoverSize(
        estimate::ResourceModel(kind, grid.base.tech));
    std::cout << "favorability cross-over for this app/technology: "
              << (x ? Table::num(*x) : std::string("beyond 1e24"))
              << " logical ops\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qsurf;

    apps::AppKind kind = apps::AppKind::SQ;
    double log_ops = 10.0;
    double pp = 1e-6;
    if (argc > 4 || (argc > 1 && !apps::parseAppArg(argv[1], kind))
        || (argc > 2 && !parseJsonOrNull(argv[2]).number(log_ops))
        || (argc > 3 && !parseJsonOrNull(argv[3]).number(pp)))
        return usage();
    try {
        explore(kind, log_ops, pp);
    } catch (const FatalError &) {
        // fatal() has already printed the reason.
        return 1;
    }
    return 0;
}
