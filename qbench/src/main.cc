/**
 * @file
 * qbench: the qsurf benchmark driver.
 *
 *   qbench --workload contended-sweep|qasm-compile|service-mix
 *          --seed N --seconds S --trace 0|1
 *          [--setup-only] [--t0-ns NS] [--record PATH]
 *          [--expected-dir DIR] [--server PATH] [--spans PATH]
 *
 * Prints three JSON lines on stdout: the machine descriptor, the
 * run's facts (sample counts, design shares, known defects) and,
 * last, the result {"correct", "attempted", "failed", "metrics"}.
 * Exits 1 when an output check fails.  qbench/run.py builds this
 * program, repeats set-up, and checks names and units against
 * BENCHMARK.json.
 */

#include <iostream>
#include <thread>

#include "bench.h"
#include "common/json.h"

namespace {

using namespace qbench;

int
usage()
{
    std::cerr << "usage: qbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--setup-only] [--t0-ns NS] "
                 "[--record PATH] [--expected-dir DIR] "
                 "[--server PATH] [--spans PATH]\n";
    return 2;
}

double
metric(const Result &r, const std::string &name)
{
    for (const Metric &m : r.metrics)
        if (m.name == name)
            return m.value;
    return 0;
}

/** Shares the traced run uses to confirm the workload design. */
void
addDesignShares(Result &r)
{
    double wall_ms = metric(r, "trace.wall_s") * 1e3;
    if (wall_ms <= 0)
        return;
    double sched = 0, front = 0, service = 0;
    for (const Metric &m : r.metrics) {
        const std::string &n = m.name;
        if (n.size() > 7 && n.compare(n.size() - 7, 7, ".run_ms") == 0
            && n.rfind("estimate", 0) != 0)
            sched += m.value;
        if (n.rfind("qasm.", 0) == 0 && n.find("_ms") != std::string::npos)
            front += m.value;
        if (n.rfind("circuit.", 0) == 0 && n.find("_ms") != std::string::npos)
            front += m.value;
        if (n.size() > 11
            && n.compare(n.size() - 11, 11, ".prepare_ms") == 0)
            front += m.value;
        if (n.rfind("service.", 0) == 0 && m.value != 0)
            service += 1;
    }
    r.info["design.scheduler_run_share"] = sched / wall_ms;
    r.info["design.frontend_prepare_share"] = front / wall_ms;
    r.info["design.service_metrics_nonzero"] = service;
}

void
printMachine()
{
    qsurf::JsonWriter j(std::cout, true);
    j.beginObject();
    j.key("machine");
    j.beginObject();
    j.field("nproc", static_cast<uint64_t>(
                         std::thread::hardware_concurrency()));
    j.field("compiler", QBENCH_COMPILER);
    j.field("build_type", QBENCH_BUILD_TYPE);
    j.field("cxx_flags", QBENCH_CXX_FLAGS);
    j.endObject();
    j.endObject();
    std::cout << "\n";
}

void
printResult(const Result &r)
{
    {
        qsurf::JsonWriter j(std::cout, true);
        j.beginObject();
        j.key("samples");
        j.beginObject();
        for (const auto &[name, n] : r.samples)
            j.field(name, n);
        j.endObject();
        j.key("info");
        j.beginObject();
        for (const auto &[name, v] : r.info)
            j.field(name, v);
        j.endObject();
        j.endObject();
        std::cout << "\n";
    }
    qsurf::JsonWriter j(std::cout, true);
    j.beginObject();
    j.field("correct", r.correct);
    j.field("attempted", r.attempted);
    j.field("failed", r.failed);
    j.key("metrics");
    j.beginObject();
    for (const Metric &m : r.metrics) {
        j.key(m.name);
        j.beginObject();
        j.field("value", m.value);
        j.field("unit", m.unit);
        j.endObject();
    }
    j.endObject();
    j.endObject();
    std::cout << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                opts.workload = next();
            else if (arg == "--seed")
                opts.seed = std::stoull(next());
            else if (arg == "--seconds")
                opts.seconds = std::stod(next());
            else if (arg == "--trace")
                opts.trace = std::stoi(next()) != 0;
            else if (arg == "--setup-only")
                opts.setup_only = true;
            else if (arg == "--t0-ns")
                opts.t0_ns = std::stoll(next());
            else if (arg == "--record")
                opts.record_path = next();
            else if (arg == "--expected-dir")
                opts.expected_dir = next();
            else if (arg == "--server")
                opts.server_path = next();
            else if (arg == "--spans")
                opts.spans_path = next();
            else
                return usage();
        } catch (const std::exception &e) {
            std::cerr << "qbench: bad argument " << arg << ": "
                      << e.what() << "\n";
            return usage();
        }
    }

    Result result;
    try {
        if (opts.workload == "contended-sweep")
            result = runContendedSweep(opts);
        else if (opts.workload == "qasm-compile")
            result = runQasmCompile(opts);
        else if (opts.workload == "service-mix")
            result = runServiceMix(opts);
        else
            return usage();
    } catch (const std::exception &e) {
        std::cerr << "qbench: " << opts.workload
                  << " failed: " << e.what() << "\n";
        return 1;
    }

    result.correct = result.problems.empty();
    size_t shown = 0;
    for (const std::string &p : result.problems)
        if (shown++ < 20)
            std::cerr << "qbench: check failed: " << p << "\n";
    for (const auto &[name, count] : result.info)
        if (name.rfind("known_defect.", 0) == 0)
            std::cerr << "qbench: " << name << ": " << count
                      << " wrong service responses (reported, see "
                         "qbench/WORKLOADS.md)\n";
    if (opts.trace) {
        addDesignShares(result);
        if (!opts.spans_path.empty())
            writeSpans(opts.spans_path);
    }
    printMachine();
    printResult(result);
    return result.correct ? 0 : 1;
}
