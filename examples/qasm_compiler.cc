/**
 * @file
 * QASM compiler driver: read a QASM file (or stdin), flatten its
 * module hierarchy, decompose to Clifford+T, and print frontend
 * statistics plus the backend comparison — a miniature ScaffCC-style
 * command-line tool over the qsurf toolflow.
 *
 *   $ ./qasm_compiler program.qasm
 *   $ echo 'qbit q[2]; H q[0]; CNOT q[0], q[1];' | ./qasm_compiler
 *
 * Pass --trace=PATH and/or --metrics=PATH to also write the
 * observability sinks for the backend comparison (see README,
 * "Observability").  Pass --defects=DENSITY (and optionally
 * --defect-seed=N) to run on a randomly damaged fabric, or
 * --defect-spec=PATH to load an explicit device defect map (see
 * README, "Faulty fabrics").  DENSITY must be a number in [0, 1) and
 * N an unsigned 64-bit integer; a malformed flag prints the usage
 * line and exits 2.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "circuit/decompose.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/table.h"
#include "qasm/flatten.h"
#include "qasm/parser.h"
#include "qasm/writer.h"
#include "toolflow/toolflow.h"

namespace {

int
usage()
{
    std::cerr << "usage: qasm_compiler [--trace=PATH] "
                 "[--metrics=PATH] [--defects=DENSITY] "
                 "[--defect-seed=N] [--defect-spec=PATH] "
                 "[program.qasm]\n";
    return 2;
}

/**
 * @return the value of a numeric flag, read whole as one JSON value
 * (null when it is not one), so that the number and integer readers
 * the wire codec uses decide what it holds: "abc" and "7xyz" are
 * rejected, not read as a prefix or thrown past main().
 */
qsurf::JsonValue
flagValue(const std::string &text)
{
    try {
        return qsurf::parseJson(text);
    } catch (const qsurf::FatalError &) {
        return {};
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qsurf;

    toolflow::Config config;
    std::string input_path;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.compare(0, 8, "--trace=") == 0) {
            config.trace_path = arg.substr(8);
        } else if (arg.compare(0, 10, "--metrics=") == 0) {
            config.metrics_path = arg.substr(10);
        } else if (arg.compare(0, 10, "--defects=") == 0) {
            double &density = config.defect_density;
            if (!flagValue(arg.substr(10)).number(density)
                || density < 0 || density >= 1)
                return usage();
        } else if (arg.compare(0, 14, "--defect-seed=") == 0) {
            if (!flagValue(arg.substr(14)).integer(config.defect_seed))
                return usage();
        } else if (arg.compare(0, 14, "--defect-spec=") == 0) {
            std::ifstream spec(arg.substr(14));
            if (!spec) {
                std::cerr << "cannot open " << arg.substr(14)
                          << "\n";
                return 1;
            }
            std::ostringstream buf;
            buf << spec.rdbuf();
            config.defect_spec = buf.str();
        } else if (input_path.empty()) {
            input_path = arg;
        } else {
            return usage();
        }
    }

    std::string source;
    if (!input_path.empty()) {
        std::ifstream in(input_path);
        if (!in) {
            std::cerr << "cannot open " << input_path << "\n";
            return 1;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        source = buf.str();
    } else {
        std::ostringstream buf;
        buf << std::cin.rdbuf();
        source = buf.str();
    }

    try {
        qasm::Program prog = qasm::parse(source);
        circuit::Circuit flat = qasm::flatten(prog);
        circuit::Circuit clifford_t = circuit::decompose(flat);

        Table front("Frontend");
        front.header({"stage", "qubits", "gates"});
        front.addRow("flattened", flat.numQubits(), flat.size());
        front.addRow("Clifford+T", clifford_t.numQubits(),
                     clifford_t.size());
        front.print(std::cout);

        std::cout << "Flattened QASM:\n"
                  << qasm::writeString(flat) << "\n";

        toolflow::Report report = toolflow::run(flat, config);
        std::cout << toolflow::format(report);
    } catch (const qsurf::FatalError &e) {
        std::cerr << "compilation failed: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
