#include "engine/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string_view>
#include <thread>

#include "circuit/decompose.h"
#include "common/arena.h"
#include "common/json.h"
#include "common/logging.h"
#include "service/artifact.h"

namespace qsurf::engine {

namespace {

constexpr const char *kRowsStreamName = "qsurf-sweep-rows";
constexpr int kRowsStreamVersion = 1;

/** Read member @p key of sweep row @p row exactly into @p out (see
 *  readMetric); fatal() when it is missing and @p required, or when
 *  @p out cannot hold it. */
template <typename T>
void
rowField(const JsonValue &row, const char *key, T &out,
         bool required = true)
{
    const JsonValue *v = row.find(key);
    fatalIf(!v && required, "sweep row is missing '", key, "'");
    if (v)
        readMetric(*v, "sweep row", key, out);
}

void
hashCombine(uint64_t &h, const void *data, size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull; // FNV-1a.
    }
}

template <typename T>
void
hashValue(uint64_t &h, const T &v)
{
    hashCombine(h, &v, sizeof(v));
}

/** Hash a length first, so adjacent lists and strings never blur
 *  into one byte stream. */
void
hashLength(uint64_t &h, size_t n)
{
    hashValue(h, static_cast<uint64_t>(n));
}

void
hashString(uint64_t &h, const std::string &s)
{
    hashLength(h, s.size());
    hashCombine(h, s.data(), s.size());
}

} // namespace

size_t
SweepGrid::points() const
{
    size_t n = apps.size() * backends.size();
    forEachAxis([&](const auto &axis) { n *= (this->*axis.values).size(); });
    return n;
}

uint64_t
sweepGridFingerprint(const SweepGrid &grid)
{
    uint64_t h = 0xcbf29ce484222325ull;
    hashLength(h, grid.apps.size());
    for (const AppPoint &app : grid.apps) {
        hashValue(h, app.kind);
        hashValue(h, app.gen.problem_size);
        hashValue(h, app.gen.max_iterations);
        hashString(h, app.label);
        uint64_t fp =
            app.circuit ? circuit::fingerprint(*app.circuit) : 0;
        hashValue(h, fp);
    }
    hashLength(h, grid.backends.size());
    for (const std::string &b : grid.backends)
        hashString(h, b);
    forEachAxis([&](const auto &axis) {
        hashLength(h, (grid.*axis.values).size());
        for (const auto &v : grid.*axis.values)
            hashValue(h, v);
    });
    forEachField(grid.base, [&h](const char *, const auto &v) {
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                     std::string>)
            hashString(h, v);
        else
            hashValue(h, v);
    });
    return h;
}

namespace {

/** Expansion with the per-point backend pointers run() needs. */
std::vector<SweepPoint>
expandPoints(const SweepGrid &grid, const Registry &registry,
             std::vector<const Backend *> *item_backend)
{
    fatalIf(grid.apps.empty(), "sweep grid needs at least one app");
    fatalIf(grid.backends.empty(),
            "sweep grid needs at least one backend");
    forEachAxis([&](const auto &axis) {
        fatalIf((grid.*axis.values).empty(), "sweep grid axis '",
                axis.wire_key, "' must be non-empty");
    });
    grid.base.tech.check();

    // Resolve backends up front so name typos fail before any work.
    std::vector<const Backend *> backends;
    backends.reserve(grid.backends.size());
    for (const std::string &name : grid.backends)
        backends.push_back(&registry.get(name));

    std::vector<std::string> app_names;
    for (const AppPoint &app : grid.apps) {
        std::string name = app.label;
        if (name.empty() && app.circuit)
            name = app.circuit->name();
        if (name.empty())
            name = apps::appSpec(app.kind).name;
        app_names.push_back(std::move(name));
    }

    // One odometer over the flat index: app (outer), the axes in
    // forEachAxis order, backend (inner).
    const size_t n = grid.points();
    std::vector<SweepPoint> points(n);
    if (item_backend)
        item_backend->resize(n);
    for (size_t i = 0; i < n; ++i) {
        SweepPoint &p = points[i];
        size_t stride = n / grid.apps.size();
        size_t rest = i % stride;
        p.index = i;
        p.app_index = i / stride;
        p.app_name = app_names[p.app_index];
        forEachAxis([&](const auto &axis) {
            const auto &values = grid.*axis.values;
            stride /= values.size();
            p.*axis.point = values[rest / stride];
            rest %= stride;
        });
        p.backend = grid.backends[rest];
        if (item_backend)
            (*item_backend)[i] = backends[rest];
    }
    return points;
}

} // namespace

std::vector<SweepPoint>
expandSweepPoints(const SweepGrid &grid, const Registry &registry)
{
    return expandPoints(grid, registry, nullptr);
}

std::vector<SweepPoint>
SweepDriver::run(const SweepGrid &grid, const SweepOptions &opts) const
{
    std::vector<const Backend *> item_backend;
    std::vector<SweepPoint> points =
        expandPoints(grid, registry, &item_backend);

    service::PrepareCache *cache = opts.use_cache
        ? (opts.cache ? opts.cache : &service::PrepareCache::global())
        : nullptr;

    // The row stream: one flushed line per completed point, so a
    // killed run leaves a valid, resumable partial file.  Resume
    // merges the rows an interrupted run already finished, so only
    // the remainder executes.
    std::vector<uint8_t> done(points.size(), 0);
    std::ofstream rows_stream;
    std::mutex row_mutex;
    openSweepRows(rows_stream, grid, opts, points, done);

    auto selected = [&](size_t i) {
        return !done[i]
            && (!opts.point_filter || opts.point_filter(i));
    };

    // Generate and decompose each app's circuit once, serially, so
    // workers share immutable inputs and generation cost is paid per
    // app point rather than per grid point.  Only apps some selected
    // point actually needs are built (a shard worker skips apps
    // entirely outside its slice).  With the cache on, the
    // decomposed program is shared across sweeps too (and its
    // fingerprint rides along so artifact keys skip rehashing).
    std::vector<bool> app_needed(grid.apps.size(), false);
    for (size_t i = 0; i < points.size(); ++i)
        if (selected(i) && item_backend[i]->needsCircuit())
            app_needed[points[i].app_index] = true;

    std::vector<std::shared_ptr<const circuit::Circuit>> circuits(
        grid.apps.size());
    std::vector<uint64_t> fingerprints(grid.apps.size(), 0);
    for (size_t a = 0; a < grid.apps.size(); ++a) {
        if (!app_needed[a])
            continue;
        const AppPoint &app = grid.apps[a];
        if (cache) {
            std::shared_ptr<const service::CachedProgram> prog =
                app.circuit
                ? service::cachedProgram(*cache, *app.circuit)
                : service::cachedAppProgram(*cache, app.kind,
                                            app.gen);
            // Aliasing share: the circuit pointer keeps the whole
            // program alive.
            circuits[a] = {prog, &prog->circ};
            fingerprints[a] = prog->fingerprint;
        } else {
            circuits[a] = std::make_shared<const circuit::Circuit>(
                circuit::decompose(
                    app.circuit ? *app.circuit
                                : apps::generate(app.kind, app.gen)));
        }
    }

    // Prepare (validate) every selected item up front on the
    // caller's thread: configuration errors surface as clean
    // fatal()s, not as exceptions racing out of the pool.
    std::vector<WorkItem> items(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        if (!selected(i))
            continue;
        const SweepPoint &p = points[i];
        const Backend *backend = item_backend[i];
        WorkItem &item = items[i];
        item.app = grid.apps[p.app_index].kind;
        item.app_name = p.app_name;
        item.circuit = backend->needsCircuit()
            ? circuits[p.app_index].get()
            : nullptr;
        item.circuit_fingerprint = backend->needsCircuit()
            ? fingerprints[p.app_index]
            : 0;
        item.config = grid.base;
        forEachAxis([&](const auto &axis) {
            axis.apply(item.config, p.*axis.point);
        });
        // Seeds vary per application point, never along the policy/
        // distance/size axes: a figure compares those on the *same*
        // seeded machine layout (the paper's methodology), and the
        // derivation depends only on the grid, never on threading.
        item.config.seed = mixSeed(grid.base.seed, p.app_index);
        backend->prepare(item);
    }

    // Execute across the pool.  Work items are independent and
    // deterministic in their own (config, circuit), so any
    // assignment of items to threads produces identical results.
    int threads = opts.num_threads >= 1 ? opts.num_threads
                                        : defaultThreads();
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    auto worker = [&] {
        // Per-worker scratch arena, reset per point: BFS working
        // sets and row assembly bump-allocate here instead of the
        // global heap (results are bit-identical either way).
        Arena arena;
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= points.size() || failed.load())
                return;
            if (!selected(i))
                continue;
            try {
                if (opts.use_arena)
                    arena.reset();
                Arena::Scope scope(opts.use_arena ? &arena
                                                  : nullptr);
                Arena::Stats arena_before = arena.stats();
                uint64_t heap_before = opts.heap_alloc_counter
                    ? opts.heap_alloc_counter()
                    : 0;
                // Artifact fetch is timed apart from the run: warm
                // sweeps report near-zero prepare_ms while wall_ms
                // keeps measuring the simulation itself.  Concurrent
                // workers landing on one key build it once
                // (single-flight) and share the artifact.
                std::shared_ptr<const PreparedArtifact> artifact;
                if (cache) {
                    auto prep_start = std::chrono::steady_clock::now();
                    artifact = service::fetchArtifact(
                        *cache, *item_backend[i], items[i]);
                    points[i].prepare_ms =
                        std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now()
                            - prep_start)
                            .count();
                }
                // Each item is executed by exactly one worker, so
                // wiring a per-run recorder into its config races
                // with nothing.
                std::unique_ptr<obs::RunRecorder> rec;
                if (opts.trace) {
                    rec = opts.trace->beginRun(i, points[i].app_name,
                                               points[i].backend);
                    items[i].config.trace = rec.get();
                }
                auto start = std::chrono::steady_clock::now();
                points[i].metrics =
                    item_backend[i]->run(items[i], artifact.get());
                points[i].wall_ms =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
                if (rec) {
                    items[i].config.trace = nullptr;
                    opts.trace->endRun(std::move(rec));
                }
                if (opts.use_arena) {
                    Arena::Stats after = arena.stats();
                    points[i].arena_allocs =
                        after.allocations - arena_before.allocations;
                    points[i].arena_bytes =
                        after.bytes - arena_before.bytes;
                }
                if (opts.heap_alloc_counter)
                    points[i].heap_allocs =
                        opts.heap_alloc_counter() - heap_before;
                if (opts.metrics) {
                    opts.metrics->observe("sweep.phase.prepare_ms",
                                          points[i].prepare_ms);
                    opts.metrics->observe("sweep.phase.run_ms",
                                          points[i].wall_ms);
                }
                if (rows_stream.is_open() || opts.on_row) {
                    // Assembled in the arena: steady-state row
                    // emission costs zero heap allocations.
                    ArenaStreamBuf buf;
                    std::ostream ros(&buf);
                    writeSweepRowLine(ros, points[i]);
                    std::string_view line(buf.data(), buf.size());
                    std::lock_guard<std::mutex> lock(row_mutex);
                    if (rows_stream.is_open()) {
                        rows_stream << line << "\n";
                        rows_stream.flush();
                    }
                    if (opts.on_row)
                        opts.on_row(points[i], line);
                }
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                failed.store(true);
                return;
            }
        }
    };

    if (threads == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<size_t>(threads));
        for (int t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
    if (first_error)
        std::rethrow_exception(first_error);

    if (!opts.json_path.empty()) {
        std::ofstream os(opts.json_path);
        fatalIf(!os, "cannot open '", opts.json_path,
                "' for writing");
        writeSweepJson(os, opts.title, points, cache);
    }
    return points;
}

int
defaultThreads()
{
    // QSURF_THREADS overrides the interactive clamp, so batch
    // machines can use their full width without touching every
    // bench's flags.
    if (const char *env = std::getenv("QSURF_THREADS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return static_cast<int>(std::min<long>(v, 1 << 16));
        warn("ignoring invalid QSURF_THREADS='", env,
             "' (want a positive integer)");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::min(8u, std::max(1u, hw)));
}

void
writeSweepRow(JsonWriter &j, const SweepPoint &p, bool timing)
{
    // The Metrics fields in forEachMetric order, with the grid axes
    // (each after its row_after field) and the derived ratio and
    // space-time interleaved where rows have always carried them:
    // resumable row files and shard merges compare these bytes.
    j.beginObject();
    j.field("app", p.app_name);
    forEachMetric(p.metrics, [&](std::string_view name, const auto &v) {
        writeMetric(j, name.data(), v);
        forEachAxis([&](const auto &axis) {
            if (axis.carried(p) && name == axis.row_after)
                j.field(axis.row_key, p.*axis.point);
        });
        if (name == "critical_path_cycles") {
            j.field("ratio", p.metrics.ratio());
        } else if (name == "seconds") {
            j.field("space_time", p.metrics.spaceTime());
        }
    });
    if (timing) {
        j.field("wall_ms", p.wall_ms);
        j.field("prepare_ms", p.prepare_ms);
        j.field("sim_cycles_per_sec", p.simCyclesPerSec());
        j.field("arena_allocs", p.arena_allocs);
        j.field("arena_bytes", p.arena_bytes);
        j.field("heap_allocs", p.heap_allocs);
    }
    if (!p.metrics.extras.empty())
        writeExtras(j, p.metrics);
    j.endObject();
}

void
writeSweepRowLine(std::ostream &os, const SweepPoint &p)
{
    // The "index" field rides outside writeSweepRow on purpose: the
    // full document's rows are implicitly ordered, a streamed /
    // wire-framed row must identify itself.
    JsonWriter j(os, /*compact=*/true);
    j.beginObject();
    j.field("index", static_cast<uint64_t>(p.index));
    j.key("row");
    writeSweepRow(j, p);
    j.endObject();
}

namespace {

/** parseSweepRowLine over an already parsed line. */
SweepPoint
rowFromJson(const JsonValue &doc)
{
    fatalIf(!doc.isObject(), "sweep row line is not an object");
    SweepPoint p;
    uint64_t index = 0;
    rowField(doc, "index", index);
    p.index = index;
    const JsonValue *row = doc.find("row");
    fatalIf(!row || !row->isObject(),
            "sweep row line is missing the 'row' object");
    rowField(*row, "app", p.app_name);
    forEachMetric(p.metrics, [row](const char *name, auto &v) {
        rowField(*row, name, v);
    });
    p.backend = p.metrics.backend;
    forEachAxis([&](const auto &axis) {
        if (axis.row_key)
            rowField(*row, axis.row_key, p.*axis.point, !axis.in_row);
    });
    rowField(*row, "wall_ms", p.wall_ms, false);
    rowField(*row, "prepare_ms", p.prepare_ms, false);
    rowField(*row, "arena_allocs", p.arena_allocs, false);
    rowField(*row, "arena_bytes", p.arena_bytes, false);
    rowField(*row, "heap_allocs", p.heap_allocs, false);
    if (const JsonValue *extras = row->find("extras"))
        readExtras(*extras, "sweep row", p.metrics);
    return p;
}

} // namespace

SweepPoint
parseSweepRowLine(const std::string &line)
{
    return rowFromJson(parseJson(line));
}

std::string
canonicalSweepRows(const std::vector<SweepPoint> &points)
{
    std::ostringstream os;
    JsonWriter j(os, /*compact=*/true);
    j.beginArray();
    for (const SweepPoint &p : points)
        writeSweepRow(j, p, /*timing=*/false);
    j.endArray();
    return os.str();
}

void
writeSweepRowsHeader(std::ostream &os, const SweepGrid &grid,
                     const std::string &title)
{
    JsonWriter j(os, /*compact=*/true);
    j.beginObject();
    j.field("stream", kRowsStreamName);
    j.field("version", kRowsStreamVersion);
    j.field("title", title);
    j.field("points", static_cast<uint64_t>(grid.points()));
    j.field("grid_fingerprint", sweepGridFingerprint(grid));
    j.endObject();
}

size_t
loadSweepRows(const std::string &path, const SweepGrid &grid,
              const std::string &title,
              std::vector<SweepPoint> &points,
              std::vector<uint8_t> &done, size_t *valid_bytes)
{
    if (valid_bytes)
        *valid_bytes = 0;
    std::ifstream in(path);
    if (!in)
        return 0;
    std::string line;
    if (!std::getline(in, line) || in.eof())
        return 0;
    // Header check: never merge rows from a different experiment.
    try {
        JsonValue header = parseJsonQuietly(line);
        const JsonValue *stream = header.find("stream");
        const JsonValue *fp = header.find("grid_fingerprint");
        const JsonValue *n = header.find("points");
        const JsonValue *t = header.find("title");
        uint64_t fp_value = 0;
        if (!stream || !stream->isString()
            || stream->str != kRowsStreamName || !fp
            || !fp->integer(fp_value)
            || fp_value != sweepGridFingerprint(grid)
            || !n || !n->isNumber()
            || n->num != static_cast<double>(grid.points()) || !t
            || !t->isString() || t->str != title) {
            warn("row stream '", path,
                 "' does not match this sweep; running fresh");
            return 0;
        }
    } catch (const FatalError &) {
        warn("row stream '", path,
             "' has a malformed header; running fresh");
        return 0;
    }

    // Bytes of the validated prefix: every line below only counts
    // once it parsed AND carried its terminating newline.
    size_t consumed = line.size() + 1;
    size_t merged = 0;
    while (std::getline(in, line)) {
        if (in.eof()) {
            // The writer terminates every row with a newline, so an
            // unterminated final line is torn by definition — even
            // when it happens to parse.
            warn("row stream '", path,
                 "' ends in a torn line; ignoring it");
            break;
        }
        if (line.empty()) {
            consumed += 1;
            continue;
        }
        SweepPoint row;
        try {
            row = rowFromJson(parseJsonQuietly(line));
        } catch (const FatalError &) {
            // A torn final line is exactly what a killed run leaves
            // behind (hence the quiet parse); everything before it
            // is still good.
            warn("row stream '", path,
                 "' ends in a torn line; ignoring it");
            break;
        }
        if (mergeSweepRow(std::move(row), points, done,
                          "row stream '" + path + "'"))
            ++merged;
        consumed += line.size() + 1;
    }
    if (valid_bytes)
        *valid_bytes = consumed;
    return merged;
}

bool
mergeSweepRow(SweepPoint row, std::vector<SweepPoint> &points,
              std::vector<uint8_t> &done, const std::string &source)
{
    fatalIf(row.index >= points.size(), source,
            " names out-of-range index ", row.index);
    SweepPoint &dst = points[row.index];
    bool agrees = row.app_name == dst.app_name
        && row.backend == dst.backend;
    forEachAxis([&](const auto &axis) {
        agrees = agrees && axis.carried(row) == axis.carried(dst)
            && (!axis.carried(dst) || row.*axis.point == dst.*axis.point);
    });
    fatalIf(!agrees, source, " row ", row.index,
            " disagrees with the grid expansion");
    if (done[row.index])
        return false;
    SweepPoint expanded = std::move(dst);
    dst = std::move(row);
    dst.index = expanded.index;
    dst.app_index = expanded.app_index;
    forEachAxis([&](const auto &axis) {
        dst.*axis.point = expanded.*axis.point;
    });
    done[dst.index] = 1;
    return true;
}

size_t
openSweepRows(std::ofstream &out, const SweepGrid &grid,
              const SweepOptions &opts, std::vector<SweepPoint> &points,
              std::vector<uint8_t> &done)
{
    std::string path = opts.rows_path;
    if (path.empty() && !opts.json_path.empty())
        path = opts.json_path + ".rows";
    if (!opts.stream_rows || path.empty())
        return 0;
    size_t resumed = 0;
    size_t valid_bytes = 0;
    if (opts.resume)
        resumed = loadSweepRows(path, grid, opts.title, points, done,
                                &valid_bytes);
    if (resumed) {
        inform("resuming sweep: ", resumed, " of ", points.size(),
               " points from '", path, "'");
        // Drop any torn tail the killed run left before appending,
        // or the next row would fuse with it.
        std::error_code ec;
        std::filesystem::resize_file(path, valid_bytes, ec);
        fatalIf(static_cast<bool>(ec), "cannot truncate '", path,
                "': ", ec.message());
    }
    out.open(path, resumed ? std::ios::app : std::ios::trunc);
    fatalIf(!out, "cannot open '", path, "' for writing");
    if (!resumed) {
        writeSweepRowsHeader(out, grid, opts.title);
        out << "\n";
        out.flush();
    }
    return resumed;
}

void
writeSweepJson(std::ostream &os, const std::string &title,
               const std::vector<SweepPoint> &points,
               const service::PrepareCache *cache, bool timing)
{
    JsonWriter j(os);
    j.beginObject();
    j.field("title", title);
    j.field("points", static_cast<uint64_t>(points.size()));
    j.key("results");
    j.beginArray();
    for (const SweepPoint &p : points)
        writeSweepRow(j, p, timing);
    j.endArray();
    if (cache) {
        service::CacheStats s = cache->stats();
        j.key("cache");
        j.beginObject();
        j.field("hits", s.hits);
        j.field("misses", s.misses);
        j.field("evictions", s.evictions);
        j.field("entries", s.entries);
        j.field("hit_ratio", s.hitRatio());
        j.endObject();
    }
    j.endObject();
    os << "\n";
}

} // namespace qsurf::engine
