/**
 * @file
 * Traced end-to-end run: the observability demo.
 *
 *   $ ./traced_run --trace=trace.json --metrics=metrics.json
 *
 * Generates one ground-state-estimation workload, runs it through
 * the toolflow on the mixed-scheme hybrid backend (override with
 * --backend, repeatable), and writes the three observability sinks:
 * a Chrome trace-event JSON (load it with Perfetto's "Open trace
 * file"), a per-link mesh congestion heatmap next to it
 * ("<stem>.heatmap.json"), and the aggregate counter/histogram
 * registry.  Results are bit-identical to the same run untraced.
 * --size and --d are read whole as JSON integers; a malformed value
 * prints the usage line and exits 2.
 */

#include <cstring>
#include <iostream>
#include <string>

#include "apps/apps.h"
#include "common/json.h"
#include "common/logging.h"
#include "engine/registry.h"
#include "obs/trace.h"
#include "toolflow/toolflow.h"

namespace {

int
usage()
{
    std::cerr
        << "usage: traced_run [--trace=PATH] [--metrics=PATH]\n"
           "                  [--backend=NAME]... [--size=N] "
           "[--d=D] [--smoke]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qsurf;

    toolflow::Config config;
    config.trace_path = "trace.json";
    config.metrics_path = "metrics.json";
    config.force_distance = 5;
    int size = 12;
    bool backend_set = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) -> const char * {
            size_t n = std::strlen(prefix);
            return arg.compare(0, n, prefix) == 0
                ? arg.c_str() + n
                : nullptr;
        };
        if (const char *v = value("--trace=")) {
            config.trace_path = v;
        } else if (const char *v = value("--metrics=")) {
            config.metrics_path = v;
        } else if (const char *v = value("--backend=")) {
            config.backends.emplace_back(v);
            backend_set = true;
        } else if (const char *v = value("--size=")) {
            if (!parseJsonOrNull(v).integer(size))
                return usage();
        } else if (const char *v = value("--d=")) {
            if (!parseJsonOrNull(v).integer(config.force_distance))
                return usage();
        } else if (arg == "--smoke") {
            size = 8;
            config.force_distance = 3;
        } else {
            return usage();
        }
    }
    if (!backend_set)
        config.backends = {engine::backends::hybrid_mixed};
    if (size < 2) {
        std::cerr << "--size must be >= 2\n";
        return 2;
    }

    try {
        circuit::Circuit circ =
            apps::generate(apps::AppKind::GSE, {size, 2});
        toolflow::Report report = toolflow::run(circ, config);
        std::cout << toolflow::format(report);
        std::cout << "\nwrote " << config.trace_path << " (Perfetto), "
                  << obs::derivedPath(config.trace_path, "heatmap")
                  << " and " << config.metrics_path << "\n";
    } catch (const qsurf::FatalError &e) {
        std::cerr << "traced run failed: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
