/**
 * @file
 * Sweep-driver tests: grid expansion order, validation errors, JSON
 * emission, and — the engine's central guarantee — bit-identical
 * results for a fixed seed at thread counts 1, 2 and 8.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <type_traits>

#include "common/logging.h"
#include "engine/sweep.h"
#include "service/cache.h"
#include "service/wire.h"
#include "run_config_fields.h"

namespace qsurf::engine {
namespace {

/** A small but contention-bearing simulation grid. */
SweepGrid
simGrid()
{
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, ""},
                 {apps::AppKind::SHA1, {8, 1}, ""}};
    grid.backends = {backends::double_defect, backends::planar};
    grid.policies = {0, 6};
    grid.distances = {5};
    grid.base.seed = 1234;
    return grid;
}

bool
identical(const Metrics &a, const Metrics &b)
{
    // Exact comparison on purpose: determinism means bit-identical
    // doubles, not approximately-equal ones.
    return a.backend == b.backend && a.code == b.code
        && a.code_distance == b.code_distance
        && a.schedule_cycles == b.schedule_cycles
        && a.critical_path_cycles == b.critical_path_cycles
        && a.physical_qubits == b.physical_qubits
        && a.seconds == b.seconds && a.extras == b.extras;
}

TEST(Sweep, GridPointCountAndExpansionOrder)
{
    SweepGrid grid = simGrid();
    EXPECT_EQ(grid.points(), 8u);

    SweepOptions opts;
    auto results = SweepDriver().run(grid, opts);
    ASSERT_EQ(results.size(), 8u);

    // App-major, backend-innermost.
    EXPECT_EQ(results[0].app_name, "SQ");
    EXPECT_EQ(results[0].backend, backends::double_defect);
    EXPECT_EQ(results[0].policy, 0);
    EXPECT_EQ(results[1].backend, backends::planar);
    EXPECT_EQ(results[2].policy, 6);
    EXPECT_EQ(results[4].app_name, "SHA-1");
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].index, i);
        EXPECT_GT(results[i].metrics.schedule_cycles, 0u);
    }
}

TEST(Sweep, DeterministicAcrossThreadCounts)
{
    SweepGrid grid = simGrid();

    SweepOptions opts1, opts2, opts8;
    opts1.num_threads = 1;
    opts2.num_threads = 2;
    opts8.num_threads = 8;

    SweepDriver driver;
    auto r1 = driver.run(grid, opts1);
    auto r2 = driver.run(grid, opts2);
    auto r8 = driver.run(grid, opts8);

    ASSERT_EQ(r1.size(), r2.size());
    ASSERT_EQ(r1.size(), r8.size());
    for (size_t i = 0; i < r1.size(); ++i) {
        EXPECT_TRUE(identical(r1[i].metrics, r2[i].metrics))
            << "1-thread vs 2-thread mismatch at point " << i;
        EXPECT_TRUE(identical(r1[i].metrics, r8[i].metrics))
            << "1-thread vs 8-thread mismatch at point " << i;
    }
}

TEST(Sweep, SeedChangesResults)
{
    SweepGrid grid = simGrid();
    auto r1 = SweepDriver().run(grid);
    grid.base.seed = 99;
    auto r2 = SweepDriver().run(grid);
    // Layout tie-breaking is seeded, so at least one contended point
    // should move.  (All points moving identically would be a seed
    // plumbing bug.)
    bool any_different = false;
    for (size_t i = 0; i < r1.size(); ++i)
        any_different = any_different
            || !identical(r1[i].metrics, r2[i].metrics);
    EXPECT_TRUE(any_different);
}

TEST(Sweep, PolicyAxisSharesOneSeededLayout)
{
    // Figure 6 compares policies on the same machine: seeds vary
    // per application point, never along the policy axis, so every
    // optimized-layout policy must see an identical layout.
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SHA1, {8, 1}, ""}};
    grid.backends = {backends::double_defect};
    grid.policies = {3, 6};
    grid.distances = {5};
    auto results = SweepDriver().run(grid);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_DOUBLE_EQ(results[0].metrics.extra("layout_cost"),
                     results[1].metrics.extra("layout_cost"));
}

TEST(Sweep, ModelBackendsSweepSizesWithoutCircuits)
{
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {}, ""}};
    grid.backends = {backends::planar_model,
                     backends::double_defect_model};
    grid.sizes = {1e4, 1e8, 1e12};
    grid.base.tech = qec::tech_points::futureOptimistic();

    auto results = SweepDriver().run(grid);
    ASSERT_EQ(results.size(), 6u);
    // Time grows with computation size for both codes.
    EXPECT_LT(results[0].metrics.seconds, results[2].metrics.seconds);
    EXPECT_LT(results[2].metrics.seconds, results[4].metrics.seconds);
    EXPECT_LT(results[1].metrics.seconds, results[3].metrics.seconds);
}

TEST(Sweep, EmptyAxesAreFatal)
{
    SweepGrid grid = simGrid();
    grid.backends.clear();
    EXPECT_THROW(SweepDriver().run(grid), FatalError);

    grid = simGrid();
    grid.apps.clear();
    EXPECT_THROW(SweepDriver().run(grid), FatalError);

    grid = simGrid();
    grid.policies.clear();
    EXPECT_THROW(SweepDriver().run(grid), FatalError);
}

TEST(Sweep, UnknownBackendIsFatalBeforeAnyWork)
{
    SweepGrid grid = simGrid();
    grid.backends = {"no-such-backend"};
    EXPECT_THROW(SweepDriver().run(grid), FatalError);
}

TEST(Sweep, BadPolicyIsFatalInPrepare)
{
    SweepGrid grid = simGrid();
    grid.policies = {42};
    EXPECT_THROW(SweepDriver().run(grid), FatalError);
}

TEST(Sweep, WritesParseableJson)
{
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, ""}};
    grid.backends = {backends::double_defect};
    grid.distances = {5};

    std::string path = "sweep_test_output.json";
    service::PrepareCache cache;
    SweepOptions opts;
    opts.json_path = path;
    opts.title = "sweep \"test\"";
    opts.cache = &cache;
    auto results = SweepDriver().run(grid, opts);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string json = ss.str();
    std::remove(path.c_str());
    std::remove((path + ".rows").c_str());

    for (const char *needle :
         {"\"title\"", "\"sweep \\\"test\\\"\"", "\"results\"",
          "\"backend\"", "\"double-defect\"", "\"schedule_cycles\"",
          "\"extras\"", "\"mesh_utilization\""})
        EXPECT_NE(json.find(needle), std::string::npos) << needle;

    std::ostringstream direct;
    writeSweepJson(direct, "sweep \"test\"", results, &cache);
    EXPECT_EQ(json, direct.str());
}

TEST(Sweep, DefaultThreadsInRange)
{
    int t = defaultThreads();
    EXPECT_GE(t, 1);
    EXPECT_LE(t, 8);
}

TEST(Sweep, LabelOverridesAppName)
{
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, "my-workload"}};
    grid.backends = {backends::planar};
    grid.distances = {5};
    auto results = SweepDriver().run(grid);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].app_name, "my-workload");
}

/** @return @p line with the value of member @p key replaced by the
 *  literal @p value (the first occurrence: "index" is the line's own,
 *  every other key sits in its one "row" object). */
std::string
withValue(const std::string &line, const std::string &key,
          const std::string &value)
{
    std::string needle = "\"" + key + "\": ";
    size_t at = line.find(needle);
    EXPECT_NE(at, std::string::npos) << key;
    at += needle.size();
    size_t end = line.find_first_of(",}", at);
    return line.substr(0, at) + value + line.substr(end);
}

TEST(Sweep, RowReaderRejectsValuesTheFieldCannotHold)
{
    setQuiet(true);
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {}, ""}};
    grid.backends = {backends::planar_model,
                     backends::double_defect_model};
    grid.sizes = {1e4, 1e6};
    std::string path = ::testing::TempDir() + "/qsurf_hostile.jsonl";
    std::remove(path.c_str());
    SweepOptions opts;
    opts.rows_path = path;
    std::vector<SweepPoint> fresh = SweepDriver().run(grid, opts);
    ASSERT_EQ(fresh.size(), 4u);

    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 5u); // The header and one line per point.
    const std::string &good = lines[2];
    EXPECT_NO_THROW(parseSweepRowLine(good));

    // Each value is valid JSON the old double-cast reader accepted
    // as something else: -10 cycles as 2^64 - 10, 1e20 as INT_MIN,
    // 5.7 as 5 and index 0.5 as row 0.
    const std::pair<const char *, const char *> hostile[] = {
        {"schedule_cycles", "-10"}, {"code_distance", "5.7"},
        {"code_distance", "1e20"},  {"index", "-1"},
        {"index", "0.5"},
    };
    for (const auto &[key, value] : hostile) {
        std::string bad = withValue(good, key, value);
        EXPECT_THROW(parseSweepRowLine(bad), FatalError)
            << key << ": " << value;

        // Resume treats the line as torn: the row before it merges,
        // that row and every later one run again.
        {
            std::ofstream out(path, std::ios::trunc);
            out << lines[0] << "\n" << lines[1] << "\n" << bad << "\n"
                << lines[3] << "\n" << lines[4] << "\n";
        }
        std::vector<SweepPoint> points = expandSweepPoints(grid);
        std::vector<uint8_t> done(points.size(), 0);
        size_t valid = 0;
        EXPECT_EQ(loadSweepRows(path, grid, "", points, done, &valid),
                  1u)
            << key << ": " << value;
        EXPECT_EQ(done, (std::vector<uint8_t>{1, 0, 0, 0}))
            << key << ": " << value;
        EXPECT_EQ(valid, lines[0].size() + lines[1].size() + 2)
            << key << ": " << value;

        SweepOptions resume = opts;
        resume.resume = true;
        EXPECT_EQ(canonicalSweepRows(SweepDriver().run(grid, resume)),
                  canonicalSweepRows(fresh))
            << key << ": " << value;
    }
    std::remove(path.c_str());
}

/**
 * Two grids of two points each whose axis values, read one after
 * another, are the same numbers: only where the EPR-window axis ends
 * and the distance axis begins tells them apart.
 */
std::pair<SweepGrid, SweepGrid>
boundaryGrids()
{
    SweepGrid a;
    a.apps = {{apps::AppKind::SQ, {8, 1}, ""}};
    a.backends = {backends::double_defect};
    a.epr_windows = {-1};
    a.distances = {5, 7};
    SweepGrid b = a;
    b.epr_windows = {-1, 5};
    b.distances = {7};
    return {a, b};
}

TEST(Sweep, FingerprintSeparatesAxisBoundaries)
{
    auto [a, b] = boundaryGrids();
    ASSERT_EQ(a.points(), b.points());
    EXPECT_NE(sweepGridFingerprint(a), sweepGridFingerprint(b));
}

TEST(Sweep, ResumeNeverMergesRowsOfAnotherGrid)
{
    setQuiet(true);
    auto [a, b] = boundaryGrids();
    std::string path = ::testing::TempDir() + "/qsurf_boundary.jsonl";
    std::remove(path.c_str());

    // Point 0 of grid A (distance 5) lands in the row file.
    SweepOptions opts;
    opts.rows_path = path;
    opts.title = "boundary";
    opts.point_filter = [](size_t i) { return i == 0; };
    SweepDriver().run(a, opts);

    // Resuming grid B (point 0 at distance 7) from that file under
    // the same title must run it fresh.
    SweepOptions resume;
    resume.rows_path = path;
    resume.title = "boundary";
    resume.resume = true;
    std::vector<SweepPoint> resumed = SweepDriver().run(b, resume);
    std::vector<SweepPoint> fresh = SweepDriver().run(b);
    ASSERT_EQ(resumed.size(), 2u);
    EXPECT_EQ(resumed[0].metrics.code_distance, 7);
    EXPECT_TRUE(identical(resumed[0].metrics, fresh[0].metrics));
    EXPECT_EQ(canonicalSweepRows(resumed), canonicalSweepRows(fresh));
    std::remove(path.c_str());
}

/** @p v as an exact string (doubles by bit pattern). */
template <typename T>
std::string
exact(T v)
{
    if constexpr (std::is_same_v<T, double>) {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        return "0x" + std::to_string(bits);
    } else {
        return std::to_string(v);
    }
}

/** Every axis of @p grid as exact "key=v,v,..." strings, in
 *  forEachAxis order. */
std::vector<std::string>
axisValues(const SweepGrid &grid)
{
    std::vector<std::string> out;
    forEachAxis([&](const auto &axis) {
        std::string s = std::string(axis.wire_key) + "=";
        for (const auto &v : grid.*axis.values)
            s += exact(v) + ",";
        out.push_back(s);
    });
    return out;
}

/** Every axis value of @p p as an exact "key=v" string. */
std::vector<std::string>
axisValues(const SweepPoint &p)
{
    std::vector<std::string> out;
    forEachAxis([&](const auto &axis) {
        out.push_back(std::string(axis.wire_key) + "="
                      + exact(p.*axis.point));
    });
    return out;
}

size_t
axisCount()
{
    size_t n = 0;
    forEachAxis([&n](const auto &) { ++n; });
    return n;
}

/** Step @p v to a different value its row still carries. */
template <typename T>
void
perturb(T &v)
{
    if constexpr (std::is_same_v<T, double>)
        v = v / 3 + 0.1;
    else
        v += 1;
}

/** A point whose every axis holds a value its row carries. */
SweepPoint
axisPoint()
{
    SweepPoint p;
    p.index = 4;
    p.app_name = "SQ";
    p.backend = backends::planar_model;
    p.metrics.backend = p.backend;
    p.kq = 1e6 / 7;
    p.distance = 5;
    p.policy = 3;
    p.arbiter = 1;
    p.layout_objective = 2;
    p.epr_window = 16;
    p.defect = 0.05;
    return p;
}

SweepPoint
throughRow(const SweepPoint &p)
{
    std::ostringstream os;
    writeSweepRowLine(os, p);
    return parseSweepRowLine(os.str());
}

TEST(SweepAxes, EachAxisIsNamedOnce)
{
    std::set<std::string> wire_keys = {"apps", "backends", "base"};
    std::set<std::string> row_keys = {
        "index", "row", "app", "ratio", "space_time", "extras",
        "wall_ms", "prepare_ms", "sim_cycles_per_sec", "arena_allocs",
        "arena_bytes", "heap_allocs"};
    const Metrics m;
    forEachMetric(m, [&row_keys](const char *name, const auto &) {
        row_keys.insert(name);
    });
    std::set<std::string> config_fields;
    const std::vector<std::string> config =
        qsurf::testing::fieldValues(RunConfig{});
    std::vector<std::string> grid_values = axisValues(SweepGrid{});
    forEachAxis([&](const auto &axis) {
        EXPECT_TRUE(wire_keys.insert(axis.wire_key).second)
            << axis.wire_key;
        if (axis.row_key) {
            EXPECT_TRUE(row_keys.insert(axis.row_key).second)
                << axis.row_key;
            EXPECT_TRUE(axis.row_after != nullptr) << axis.row_key;
        }
        // apply() sets exactly one RunConfig field of its own.
        RunConfig c;
        axis.apply(c, axisPoint().*axis.point);
        std::vector<std::string> after = qsurf::testing::fieldValues(c);
        size_t moved = 0;
        for (size_t f = 0; f < config.size(); ++f) {
            if (config[f] != after[f]) {
                ++moved;
                EXPECT_TRUE(config_fields.insert(config[f]).second)
                    << axis.wire_key;
            }
        }
        EXPECT_EQ(moved, 1u) << axis.wire_key;
    });
    EXPECT_EQ(axisCount(), 7u);
    EXPECT_EQ(wire_keys.size(), 3 + axisCount());
    // Distinct keys could still alias one member; stepping each
    // axis's grid vector and point member must move only its own.
    for (size_t i = 0; i < axisCount(); ++i) {
        SweepGrid grid;
        SweepPoint p = axisPoint();
        const std::vector<std::string> base = axisValues(p);
        size_t k = 0;
        forEachAxis([&](const auto &axis) {
            if (k++ != i)
                return;
            (grid.*axis.values).push_back({});
            perturb(p.*axis.point);
        });
        std::vector<std::string> grid_moved = axisValues(grid);
        std::vector<std::string> point_moved = axisValues(p);
        for (size_t a = 0; a < axisCount(); ++a) {
            EXPECT_EQ(grid_moved[a] != grid_values[a], a == i) << a;
            EXPECT_EQ(point_moved[a] != base[a], a == i) << a;
        }
    }
}

TEST(SweepAxes, PerturbingAnyAxisChangesTheFingerprint)
{
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 1}, ""}};
    grid.backends = {backends::planar};
    const uint64_t base_fp = sweepGridFingerprint(grid);
    for (size_t i = 0; i < axisCount(); ++i) {
        SweepGrid stepped = grid;
        SweepGrid longer = grid;
        std::string name;
        size_t k = 0;
        forEachAxis([&](const auto &axis) {
            if (k++ != i)
                return;
            name = axis.wire_key;
            perturb((stepped.*axis.values)[0]);
            auto &values = longer.*axis.values;
            values.push_back(values[0]);
        });
        EXPECT_NE(sweepGridFingerprint(stepped), base_fp) << name;
        EXPECT_NE(sweepGridFingerprint(longer), base_fp) << name;
    }
}

TEST(SweepAxes, NoValueCrossesAnAxisBoundaryUnnoticed)
{
    // For every two axes of one value type, moving the middle value
    // across their boundary keeps the values' sequence but must
    // move the fingerprint: each list's length is hashed.
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 1}, ""}};
    grid.backends = {backends::planar};
    size_t pairs = 0;
    forEachAxis([&](const auto &first) {
        forEachAxis([&](const auto &second) {
            using First = std::decay_t<decltype(grid.*first.values)>;
            using Second = std::decay_t<decltype(grid.*second.values)>;
            if constexpr (std::is_same_v<First, Second>) {
                if (first.values == second.values)
                    return;
                SweepGrid a = grid;
                SweepGrid b = grid;
                a.*first.values = {1, 2};
                a.*second.values = {3};
                b.*first.values = {1};
                b.*second.values = {2, 3};
                EXPECT_NE(sweepGridFingerprint(a),
                          sweepGridFingerprint(b))
                    << first.wire_key << " | " << second.wire_key;
                ++pairs;
            }
        });
    });
    EXPECT_GE(pairs, axisCount());
}

TEST(SweepAxes, EveryAxisCrossesBothCodecsExactly)
{
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 1}, ""}};
    grid.backends = {backends::planar};
    SweepPoint base = axisPoint();
    for (size_t i = 0; i <= axisCount(); ++i) {
        SweepGrid g = grid;
        SweepPoint p = base;
        size_t k = 0;
        forEachAxis([&](const auto &axis) {
            // Every axis holds two values; axis i a third, stepped.
            auto &values = g.*axis.values;
            values.push_back(p.*axis.point);
            if (k++ == i) {
                perturb(p.*axis.point);
                values.push_back(p.*axis.point);
            }
        });
        SweepGrid g_back =
            service::wire::decodeSweepGrid(
                service::wire::encodeSweepGrid(g));
        EXPECT_EQ(axisValues(g_back), axisValues(g)) << i;
        EXPECT_EQ(sweepGridFingerprint(g_back),
                  sweepGridFingerprint(g))
            << i;

        // A row carries every axis but the distance, which travels
        // as the resolved metrics.code_distance.
        SweepPoint back = throughRow(p);
        back.distance = p.distance;
        EXPECT_EQ(axisValues(back), axisValues(p)) << i;
    }

    // Values that mean "unset" stay out of the row and read back.
    SweepPoint unset;
    unset.backend = unset.metrics.backend = backends::planar;
    std::ostringstream os;
    writeSweepRowLine(os, unset);
    for (const char *key : {"\"kq\"", "\"epr_window\"", "\"defect\""})
        EXPECT_EQ(os.str().find(key), std::string::npos) << key;
    EXPECT_EQ(axisValues(throughRow(unset)), axisValues(unset));
}

TEST(SweepAxes, MergeRejectsRowsThatDisagreeWithTheirPoint)
{
    setQuiet(true);
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {}, ""}};
    grid.backends = {backends::planar_model};
    grid.sizes = {1e4, 1e6};
    grid.arbiters = {0, 1};
    std::string path = ::testing::TempDir() + "/qsurf_disagree.jsonl";
    std::remove(path.c_str());
    SweepOptions opts;
    opts.rows_path = path;
    SweepDriver().run(grid, opts);

    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 5u);
    const std::string &first = lines[1]; // Point 0: kq 1e4, arbiter 0.
    ASSERT_EQ(parseSweepRowLine(first).kq, 1e4);

    // The header matches; only the row's own axis value is wrong.
    const std::pair<const char *, const char *> wrong[] = {
        {"kq", "1000000"}, {"arbiter", "1"}};
    for (const auto &[key, value] : wrong) {
        std::string bad = withValue(first, key, value);
        {
            std::ofstream out(path, std::ios::trunc);
            out << lines[0] << "\n" << bad << "\n";
        }
        std::vector<SweepPoint> points = expandSweepPoints(grid);
        std::vector<uint8_t> done(points.size(), 0);
        EXPECT_THROW(loadSweepRows(path, grid, "", points, done),
                     FatalError)
            << key;

        // The shard parent's merge is the same one.
        done.assign(points.size(), 0);
        EXPECT_THROW(mergeSweepRow(parseSweepRowLine(bad), points,
                                   done, "worker"),
                     FatalError)
            << key;
        EXPECT_EQ(done, std::vector<uint8_t>(points.size(), 0));
    }

    // An agreeing row merges once; a duplicate is dropped.
    std::vector<SweepPoint> points = expandSweepPoints(grid);
    std::vector<uint8_t> done(points.size(), 0);
    EXPECT_TRUE(
        mergeSweepRow(parseSweepRowLine(first), points, done, "worker"));
    EXPECT_FALSE(
        mergeSweepRow(parseSweepRowLine(first), points, done, "worker"));
    EXPECT_EQ(points[0].kq, 1e4);
    EXPECT_GT(points[0].metrics.schedule_cycles, 0u);
    std::remove(path.c_str());
}

} // namespace
} // namespace qsurf::engine
