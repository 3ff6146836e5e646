/**
 * @file
 * Braid-policy explorer: generate one of the paper's workloads and
 * sweep the seven braid prioritization policies of Section 6.3,
 * showing how event interleaving, interaction-aware layout and
 * priority heuristics close the gap to the critical path.
 *
 *   $ ./braid_explorer [app] [problem_size] [iterations]
 *
 * where app is one of: gse, sq, sha1, im-semi, im-full.  The sizes
 * are read whole as JSON integers: an unknown app or a malformed
 * number prints the usage line and exits 2, and a size the
 * generators reject (below 2) exits 1.
 */

#include <iostream>

#include "apps/apps.h"
#include "braid/scheduler.h"
#include "circuit/decompose.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/table.h"

namespace {

using namespace qsurf;

int
usage()
{
    std::cerr << "usage: braid_explorer [" << apps::kAppArgNames
              << "] [problem_size] [iterations]\n";
    return 2;
}

/** Generate @p kind, sweep the seven policies and print the
 *  table. */
void
explore(apps::AppKind kind, const apps::GenOptions &gopts)
{
    circuit::Circuit circ =
        circuit::decompose(apps::generate(kind, gopts));
    std::cout << "Workload: " << apps::appSpec(kind).name << ", "
              << circ.numQubits() << " logical qubits, "
              << circ.size() << " Clifford+T ops\n\n";

    Table t("Policy sweep (code distance 5)");
    t.header({"policy", "what it adds", "sched cycles", "sched/CP",
              "mesh util"});
    const char *desc[] = {
        "nothing (events in program order)",
        "event interleaving",
        "+ interaction-aware layout",
        "+ criticality priority",
        "+ longest-braid priority",
        "+ closing-braids-first priority",
        "all combined (Section 6.3)",
    };
    for (int p = 0; p < braid::num_policies; ++p) {
        braid::BraidOptions opts;
        opts.code_distance = 5;
        auto r = braid::scheduleBraids(
            circ, static_cast<braid::Policy>(p), opts);
        t.addRow(braid::policyName(static_cast<braid::Policy>(p)),
                 desc[p], r.schedule_cycles,
                 Table::fixed(r.ratio(), 2),
                 Table::fixed(r.mesh_utilization, 3));
    }
    t.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qsurf;

    apps::AppKind kind = apps::AppKind::IsingSemi;
    apps::GenOptions gopts;
    gopts.problem_size = 36;
    gopts.max_iterations = 3;
    if (argc > 4 || (argc > 1 && !apps::parseAppArg(argv[1], kind))
        || (argc > 2
            && !parseJsonOrNull(argv[2]).integer(gopts.problem_size))
        || (argc > 3
            && !parseJsonOrNull(argv[3]).integer(gopts.max_iterations)))
        return usage();
    try {
        explore(kind, gopts);
    } catch (const FatalError &) {
        // fatal() has already printed the reason.
        return 1;
    }
    return 0;
}
