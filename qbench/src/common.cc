#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <new>
#include <sstream>

#include <sys/resource.h>

#include "bench.h"
#include "common/json.h"
#include "common/logging.h"
#include "engine/registry.h"

// ------------------------------------------------ heap-allocation counter

namespace {

std::atomic<uint64_t> g_heap_allocs{0};

void *
countedAlloc(std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    auto a = static_cast<std::size_t>(align);
    void *p = nullptr;
    if (posix_memalign(&p, a < sizeof(void *) ? sizeof(void *) : a,
                       size ? size : 1)
        != 0)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace qbench {

uint64_t
heapAllocs()
{
    return g_heap_allocs.load(std::memory_order_relaxed);
}

// ------------------------------------------------------------- checks

OpStats
statsOf(const std::string &id, const qsurf::engine::Metrics &m)
{
    OpStats s;
    s.id = id;
    s.values = {
        {"code", static_cast<double>(m.code)},
        {"code_distance", static_cast<double>(m.code_distance)},
        {"schedule_cycles", static_cast<double>(m.schedule_cycles)},
        {"critical_path_cycles",
         static_cast<double>(m.critical_path_cycles)},
        {"physical_qubits", m.physical_qubits},
        {"seconds", m.seconds},
    };
    for (const auto &[name, value] : m.extras)
        if (name.rfind("ff_", 0) != 0)
            s.values.emplace_back(name, value);
    return s;
}

std::string
diffStats(const OpStats &want, const OpStats &got)
{
    std::ostringstream os;
    if (want.values.size() != got.values.size())
        os << want.values.size() << " statistics expected, got "
           << got.values.size() << "; ";
    size_t n = std::min(want.values.size(), got.values.size());
    for (size_t i = 0; i < n; ++i) {
        const auto &[wn, wv] = want.values[i];
        const auto &[gn, gv] = got.values[i];
        if (wn != gn)
            os << "statistic " << i << " is '" << gn << "', expected '"
               << wn << "'; ";
        else if (!(wv == gv || (std::isnan(wv) && std::isnan(gv))))
            os << wn << " = " << gv << ", expected " << wv << "; ";
    }
    return os.str();
}

Reference::Reference(const Options &opts)
{
    if (opts.seed != kDefaultSeed || !opts.record_path.empty())
        return;
    std::ifstream in(opts.expected_dir + "/" + opts.workload + ".json");
    if (!in)
        return;
    std::ostringstream buf;
    buf << in.rdbuf();
    qsurf::JsonValue doc = qsurf::parseJson(buf.str());
    const qsurf::JsonValue *ops = doc.find("ops");
    qsurf::fatalIf(!ops || !ops->isArray(), "expected file has no ops");
    for (const qsurf::JsonValue &op : ops->items) {
        OpStats s;
        s.id = op.find("id")->str;
        for (const qsurf::JsonValue &pair : op.find("values")->items)
            s.values.emplace_back(
                pair.items.at(0).str,
                pair.items.at(1).isNull() ? NAN : pair.items.at(1).num);
        order.push_back(s.id);
        by_id.emplace(s.id, std::move(s));
    }
}

void
Reference::check(const std::vector<OpStats> &ops, Result &result)
{
    const bool adopt = by_id.empty();
    for (const OpStats &op : ops) {
        ++result.attempted;
        if (adopt) {
            if (by_id.emplace(op.id, op).second)
                order.push_back(op.id);
            continue;
        }
        auto it = by_id.find(op.id);
        std::string diff = it == by_id.end()
            ? "no expected statistics"
            : diffStats(it->second, op);
        if (!diff.empty()) {
            ++result.failed;
            result.problems.push_back(op.id + ": " + diff);
        }
    }
}

void
Reference::write(const std::string &path) const
{
    std::ofstream os(path);
    qsurf::fatalIf(!os, "cannot write ", path);
    qsurf::JsonWriter j(os);
    j.beginObject();
    j.field("seed", static_cast<uint64_t>(kDefaultSeed));
    j.key("ops");
    j.beginArray();
    for (const std::string &id : order) {
        const OpStats &s = by_id.at(id);
        j.beginObject();
        j.field("id", s.id);
        j.key("values");
        j.beginArray();
        for (const auto &[name, value] : s.values) {
            j.beginArray();
            j.value(name);
            j.value(value);
            j.endArray();
        }
        j.endArray();
        j.endObject();
    }
    j.endArray();
    j.endObject();
    os << "\n";
}

// ------------------------------------------------------------- tracer

int
Tracer::begin(const std::string &name, uint64_t request)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    s.start = Clock::now();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
Tracer::end(int id)
{
    qsurf::panicIf(open_.empty() || open_.back() != id,
                   "span closed out of order");
    spans_[static_cast<size_t>(id)].end = Clock::now();
    open_.pop_back();
}

std::map<std::string, double>
selfTimes(const Tracer &tracer, double wall_ms,
          std::vector<std::string> &problems)
{
    const std::vector<Span> &spans = tracer.spans();
    std::vector<double> self(spans.size());
    double roots = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        double d = msBetween(s.start, s.end);
        self[i] += d;
        if (s.parent < 0) {
            roots += d;
            continue;
        }
        const Span &p = spans[static_cast<size_t>(s.parent)];
        if (s.start < p.start || s.end > p.end)
            problems.push_back("span " + s.name + " leaves its parent "
                               + p.name);
        self[static_cast<size_t>(s.parent)] -= d;
    }
    std::map<std::string, double> out;
    double total = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
        // Clock granularity can leave a parent a few ns "negative".
        if (self[i] < -1e-3)
            problems.push_back("span " + spans[i].name
                               + " has negative self time");
        out[spans[i].name] += self[i];
        total += self[i];
    }
    out["unspanned"] = wall_ms - roots;
    if (out["unspanned"] < -1e-3)
        problems.push_back("root spans exceed the traced wall time");
    total += out["unspanned"];
    if (std::abs(total - wall_ms) > 1e-6 * std::max(1.0, wall_ms))
        problems.push_back("self times do not sum to the traced wall");
    return out;
}

namespace {

struct KeptTimeline
{
    int pass;
    int timeline;
    std::vector<Span> spans;
};

std::vector<KeptTimeline> g_kept;

} // namespace

void
keepSpans(int pass, int timeline, const Tracer &tracer)
{
    g_kept.push_back({pass, timeline, tracer.spans()});
}

void
writeSpans(const std::string &path)
{
    std::ofstream os(path);
    qsurf::fatalIf(!os, "cannot write ", path);
    Clock::time_point origin = Clock::time_point::max();
    for (const KeptTimeline &t : g_kept)
        for (const Span &s : t.spans)
            origin = std::min(origin, s.start);
    for (const KeptTimeline &t : g_kept) {
        for (const Span &s : t.spans) {
            qsurf::JsonWriter j(os, true);
            j.beginObject();
            j.field("pass", t.pass);
            j.field("timeline", t.timeline);
            j.field("name", s.name);
            j.field("start_us", msBetween(origin, s.start) * 1e3);
            j.field("end_us", msBetween(origin, s.end) * 1e3);
            j.field("parent", s.parent);
            j.field("request", s.request);
            j.endObject();
            os << "\n";
        }
    }
}

// --------------------------------------------------------------- loop

PassLog
timeLoop(const Options &opts,
         const std::function<void(bool traced)> &pass)
{
    PassLog log;
    const Clock::time_point start = Clock::now();
    bool traced = false;
    for (;;) {
        const Clock::time_point t = Clock::now();
        pass(traced);
        const double dt = msBetween(t, Clock::now()) / 1e3;
        (traced ? log.traced_s : log.untraced_s).push_back(dt);
        if (opts.trace)
            traced = !traced;
        const bool enough = !log.untraced_s.empty()
            && (!opts.trace || !log.traced_s.empty());
        const double elapsed = msBetween(start, Clock::now()) / 1e3;
        if (enough && elapsed + dt > opts.seconds)
            break;
    }
    return log;
}

// ----------------------------------------------------------- reporting

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

/** The per-layer metrics, in BENCHMARK.json order. */
std::vector<std::pair<std::string, std::string>>
perLayerNames()
{
    std::vector<std::pair<std::string, std::string>> names;
    for (const char *s : {"surgery", "hybrid", "braid"}) {
        std::string p = s;
        names.insert(names.end(),
                     {{p + ".prepare_ms", "ms"},
                      {p + ".run_ms", "ms"},
                      {p + ".ns_per_cycle", "ns"},
                      {p + ".placements", "count"},
                      {p + ".placement_failures", "count"},
                      {p + ".claim_success_ratio", "ratio"},
                      {p + ".drops", "count"},
                      {p + ".ff_skip_ratio", "ratio"},
                      {p + ".heap_allocs", "count"}});
    }
    names.insert(names.end(),
                 {{"planar.prepare_ms", "ms"},
                  {"planar.run_ms", "ms"},
                  {"planar.stall_cycles", "cycles"},
                  {"planar.teleports", "count"},
                  {"estimate.run_ms", "ms"},
                  {"qasm.parse_ms", "ms"},
                  {"qasm.flatten_ms", "ms"},
                  {"qasm.parse_mb_per_s", "MB/s"},
                  {"circuit.peephole_ms", "ms"},
                  {"circuit.peephole_rewrites", "count"},
                  {"circuit.decompose_ms", "ms"},
                  {"circuit.parallelism_ms", "ms"},
                  {"circuit.gates_out", "count"},
                  {"apps.generate_ms", "ms"},
                  {"engine.residual_ms", "ms"},
                  {"toolflow.residual_ms", "ms"},
                  {"service.server_prepare_ms.p50", "ms"},
                  {"service.server_prepare_ms.p90", "ms"},
                  {"service.server_run_ms.p50", "ms"},
                  {"service.server_run_ms.p90", "ms"},
                  {"service.wait_ms.p50", "ms"},
                  {"service.wait_ms.p90", "ms"},
                  {"service.encode_us", "us"},
                  {"service.decode_us", "us"},
                  {"service.batch_size_mean", "count"},
                  {"service.batched_share", "ratio"},
                  {"service.cache_hit_ratio", "ratio"},
                  {"service.errors", "count"},
                  {"service.wrong_results", "count"},
                  {"service.residual_ms", "ms"},
                  {"trace.wall_s", "s"},
                  {"trace.overhead_s", "s"}});
    return names;
}

} // namespace

void
chargeSelfTimes(const Tracer &tracer, double wall_ms,
                const std::string &root, const std::string &residual,
                LayerValues &values, std::vector<std::string> &problems)
{
    static const std::vector<std::pair<std::string, std::string>>
        declared = perLayerNames();
    for (const auto &[name, ms] : selfTimes(tracer, wall_ms, problems)) {
        const std::string metric =
            name == root || name == "unspanned" ? residual : name + "_ms";
        if (std::none_of(declared.begin(), declared.end(),
                         [&](const auto &d) { return d.first == metric; }))
            problems.push_back("span " + name
                               + " is charged to no per-layer metric");
        values[metric] += ms;
    }
}

void
addPerLayer(Result &result, const std::vector<LayerValues> &passes,
            const LayerValues &totals)
{
    for (const auto &[name, unit] : perLayerNames()) {
        double value = 0;
        if (auto it = totals.find(name); it != totals.end()) {
            value = it->second;
        } else {
            std::vector<double> per_pass;
            for (const LayerValues &p : passes)
                if (auto v = p.find(name); v != p.end())
                    per_pass.push_back(v->second);
            if (!per_pass.empty()) {
                value = median(per_pass);
                result.samples[name] = per_pass.size();
            }
        }
        result.metrics.push_back({name, value, unit});
    }
}

void
addEndToEnd(Result &result, double setup_s,
            const std::vector<double> &pass_walls_s,
            const std::vector<double> &latencies_ms, double peak_rss_mb)
{
    double ok = result.attempted
        ? static_cast<double>(result.attempted - result.failed)
            / static_cast<double>(result.attempted)
        : 0;
    result.metrics.push_back({"setup_s", setup_s, "s"});
    result.metrics.push_back({"wall_s", median(pass_walls_s), "s"});
    result.metrics.push_back(
        {"latency_p50_ms", quantile(latencies_ms, 0.5), "ms"});
    result.metrics.push_back(
        {"latency_p90_ms", quantile(latencies_ms, 0.9), "ms"});
    result.metrics.push_back({"ok_share", ok, "ratio"});
    result.metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    result.samples["wall_s"] = pass_walls_s.size();
    result.samples["latency_p50_ms"] = latencies_ms.size();
    result.samples["latency_p90_ms"] = latencies_ms.size();
    result.samples["ok_share"] = result.attempted;
}

std::string
layerOf(const std::string &backend)
{
    namespace be = qsurf::engine::backends;
    if (backend == be::surgery_sim)
        return "surgery";
    if (backend == be::hybrid_mixed)
        return "hybrid";
    if (backend == be::double_defect)
        return "braid";
    if (backend == be::planar)
        return "planar";
    return "estimate";
}

void
addBackendCounters(LayerValues &values, const std::string &layer,
                   const qsurf::engine::Metrics &m)
{
    if (layer == "planar") {
        values["planar.stall_cycles"] += m.extra("stall_cycles");
        values["planar.teleports"] += m.extra("teleports");
        return;
    }
    if (layer == "estimate")
        return;
    double placed = layer == "surgery" ? m.extra("chains_placed")
        : layer == "braid"
        ? m.extra("braids_placed")
        : m.extra("braid_ops") + m.extra("teleport_ops")
            + m.extra("surgery_ops");
    values[layer + ".placements"] += placed;
    values[layer + ".placement_failures"] +=
        m.extra("placement_failures");
    values[layer + ".drops"] += m.extra("drops");
    values[layer + ".cycles"] += static_cast<double>(m.schedule_cycles);
    values[layer + ".ff_skipped"] += m.extra("ff_skipped_cycles");
}

void
deriveRatios(LayerValues &values)
{
    for (const char *s : {"surgery", "hybrid", "braid"}) {
        std::string p = s;
        double placed = values[p + ".placements"];
        double failed = values[p + ".placement_failures"];
        double cycles = values[p + ".cycles"];
        values[p + ".claim_success_ratio"] =
            placed + failed > 0 ? placed / (placed + failed) : 0;
        values[p + ".ns_per_cycle"] =
            cycles > 0 ? values[p + ".run_ms"] * 1e6 / cycles : 0;
        values[p + ".ff_skip_ratio"] =
            cycles > 0 ? values[p + ".ff_skipped"] / cycles : 0;
    }
}

double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

int64_t
monotonicNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000
        + ts.tv_nsec;
}

const int64_t g_main_ns = monotonicNs();

} // namespace

double
setupSeconds(const Options &opts)
{
    int64_t t0 = opts.t0_ns >= 0 ? opts.t0_ns : g_main_ns;
    return static_cast<double>(monotonicNs() - t0) / 1e9;
}

} // namespace qbench
