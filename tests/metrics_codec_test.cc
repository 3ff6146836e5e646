/**
 * @file
 * Tests of the Metrics codecs: the sweep row writer and reader and
 * the wire response encoder and decoder.
 *
 * MetricsCodec.BytesArePinned pins an FNV-1a digest of what the
 * writers emit for a small fixed grid, so that a refactor of the
 * codecs cannot move one byte of a resumable row file, a shard merge
 * or a served response without failing here.
 *
 * The MetricsFields cases are field-perturbation property tests in
 * the manner of run_config_test: every field engine::forEachMetric
 * lists is set in turn to a different value, so a field added later
 * is covered without editing this file, and each perturbed record
 * must cross both codecs bit-exactly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "engine/registry.h"
#include "engine/sweep.h"
#include "service/wire.h"

namespace qsurf {
namespace {

namespace wire = service::wire;

/** FNV-1a (64-bit) over the bytes of @p text. */
uint64_t
textDigest(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Every built-in simulator plus two analytic models on SQ, on a
 * perfect and a damaged fabric, with the optional row axes (EPR
 * window, computation size) present on the model points.  Timing
 * fields are set to fixed values: they are wall-clock observations.
 */
std::vector<engine::SweepPoint>
pinnedPoints()
{
    engine::SweepGrid sims;
    sims.apps = {{apps::AppKind::SQ, {8, 1}, ""}};
    sims.backends = {engine::backends::double_defect,
                     engine::backends::planar,
                     engine::backends::surgery_sim,
                     engine::backends::hybrid_mixed};
    sims.distances = {3};
    sims.defects = {0, 0.05};
    sims.base.seed = 7;

    engine::SweepGrid models;
    models.apps = {{apps::AppKind::SHA1, {}, ""}};
    models.backends = {engine::backends::planar_model,
                       engine::backends::double_defect_model};
    models.sizes = {1e6};
    models.epr_windows = {16};

    engine::SweepDriver driver;
    std::vector<engine::SweepPoint> points = driver.run(sims);
    for (engine::SweepPoint &p : driver.run(models)) {
        p.index = points.size();
        points.push_back(std::move(p));
    }
    for (size_t i = 0; i < points.size(); ++i) {
        engine::SweepPoint &p = points[i];
        p.wall_ms = 1.5 + static_cast<double>(i);
        p.prepare_ms = 0.25;
        p.arena_allocs = 7 + i;
        p.arena_bytes = 4096;
        p.heap_allocs = 3;
    }
    return points;
}

TEST(MetricsCodec, BytesArePinned)
{
    std::vector<engine::SweepPoint> points = pinnedPoints();
    ASSERT_EQ(points.size(), 10u);
    bool damaged = false;
    for (const engine::SweepPoint &p : points)
        damaged = damaged || p.metrics.has("defective_nodes");
    ASSERT_TRUE(damaged);

    std::string canonical = engine::canonicalSweepRows(points);
    for (const char *axis : {"\"defect\"", "\"kq\"", "\"epr_window\""})
        EXPECT_NE(canonical.find(axis), std::string::npos) << axis;

    std::ostringstream lines;
    for (const engine::SweepPoint &p : points) {
        engine::writeSweepRowLine(lines, p);
        lines << "\n";
    }

    std::string responses;
    for (size_t i = 0; i < points.size(); ++i) {
        service::CompileResponse resp;
        resp.metrics = points[i].metrics;
        resp.prepare_ms = 0.125 * static_cast<double>(i);
        resp.run_ms = 2.75;
        resp.batch_size = 1 + i % 3;
        if (i == 1)
            resp.error = "backend \"x\" failed";
        responses += wire::encodeCompileResponse(resp);
        responses += "\n";
    }
    // An error response carries default metrics.
    service::CompileResponse failed;
    failed.error = "unknown backend";
    responses += wire::encodeCompileResponse(failed);

    EXPECT_EQ(textDigest(canonical), 0x1a77a15638a4ef0cull)
        << "canonicalSweepRows: 0x" << std::hex
        << textDigest(canonical);
    EXPECT_EQ(textDigest(lines.str()), 0xc07ffb99046436ull)
        << "writeSweepRowLine: 0x" << std::hex
        << textDigest(lines.str());
    EXPECT_EQ(textDigest(responses), 0xc6efe75a18d8a043ull)
        << "encodeCompileResponse: 0x" << std::hex
        << textDigest(responses);
}

/** Every field of @p m as an exact "name=value" string (doubles by
 *  bit pattern), extras last and in order. */
std::vector<std::string>
fieldValues(const engine::Metrics &m)
{
    auto exact = [](const auto &v) {
        std::ostringstream os;
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, double>) {
            uint64_t bits = 0;
            std::memcpy(&bits, &v, sizeof(bits));
            os << std::hex << bits;
        } else if constexpr (std::is_same_v<T, qec::CodeKind>) {
            os << qec::codeKindName(v);
        } else {
            os << v;
        }
        return os.str();
    };
    std::vector<std::string> out;
    engine::forEachMetric(m, [&](const char *name, const auto &v) {
        out.push_back(std::string(name) + "=" + exact(v));
    });
    for (const auto &[name, v] : m.extras)
        out.push_back("extras." + name + "=" + exact(v));
    return out;
}

size_t
fieldCount()
{
    const engine::Metrics m;
    size_t n = 0;
    engine::forEachMetric(m, [&n](const char *, const auto &) { ++n; });
    return n;
}

/** A record with no field at its default, and extras that hold
 *  integers, fractions and extremes (no NaN: JSON has none). */
engine::Metrics
baseMetrics()
{
    engine::Metrics m;
    m.backend = engine::backends::hybrid_mixed;
    m.code = qec::CodeKind::Planar;
    m.code_distance = 7;
    m.schedule_cycles = 123457;
    m.critical_path_cycles = 98765;
    m.physical_qubits = 4321.125;
    m.seconds = 0.1 + 0.2;
    m.extras = {{"teleports", 12},
                {"mesh_utilization", 1.0 / 3.0},
                {"tiny", -4.9e-324},
                {"huge", 1.7976931348623157e308}};
    return m;
}

/**
 * Set field @p index of @p m to a different value, chosen by type
 * alone: a string gains a suffix, the code kind flips, an int steps,
 * a 64-bit integer takes a value no double can hold and a double
 * becomes a non-integer no shorter literal rounds to.  @return the
 * field's name.
 */
std::string
perturb(engine::Metrics &m, size_t index)
{
    std::string name;
    size_t k = 0;
    engine::forEachMetric(m, [&](const char *field, auto &v) {
        if (k++ != index)
            return;
        name = field;
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>)
            v += "/x";
        else if constexpr (std::is_same_v<T, qec::CodeKind>)
            v = v == qec::CodeKind::Planar ? qec::CodeKind::DoubleDefect
                                           : qec::CodeKind::Planar;
        else if constexpr (std::is_same_v<T, int>)
            v += 1;
        else if constexpr (std::is_same_v<T, uint64_t>)
            v = (v + 1) | (1ull << 60) | 1;
        else
            v = v / 3 + 0.1;
    });
    return name;
}

engine::Metrics
throughWire(const engine::Metrics &m)
{
    service::CompileResponse resp;
    resp.metrics = m;
    return wire::decodeCompileResponse(wire::encodeCompileResponse(resp))
        .metrics;
}

engine::Metrics
throughRow(const engine::Metrics &m)
{
    engine::SweepPoint p;
    p.index = 3;
    p.app_name = "SQ";
    p.backend = m.backend;
    p.metrics = m;
    std::ostringstream os;
    engine::writeSweepRowLine(os, p);
    engine::SweepPoint back = engine::parseSweepRowLine(os.str());
    EXPECT_EQ(back.backend, m.backend);
    return back.metrics;
}

TEST(MetricsFields, EachFieldIsNamedOnce)
{
    const engine::Metrics m;
    std::set<std::string> names;
    engine::forEachMetric(m, [&names](const char *name, const auto &) {
        EXPECT_TRUE(names.insert(name).second) << name;
    });
    EXPECT_FALSE(names.count("extras"));
}

TEST(MetricsFields, PerturbationChangesExactlyOneField)
{
    // Distinct names could still alias one member; a perturbation
    // that moves exactly its own field rules that out.
    const std::vector<std::string> base = fieldValues(baseMetrics());
    for (size_t i = 0; i < fieldCount(); ++i) {
        engine::Metrics m = baseMetrics();
        std::string name = perturb(m, i);
        std::vector<std::string> moved = fieldValues(m);
        ASSERT_EQ(moved.size(), base.size());
        for (size_t k = 0; k < base.size(); ++k)
            EXPECT_EQ(moved[k] != base[k], k == i) << name;
    }
}

TEST(MetricsFields, EveryFieldCrossesBothCodecsExactly)
{
    std::vector<engine::Metrics> records = {baseMetrics(),
                                            engine::Metrics{}};
    for (size_t i = 0; i < fieldCount(); ++i) {
        records.push_back(baseMetrics());
        perturb(records.back(), i);
    }
    for (const engine::Metrics &m : records) {
        std::vector<std::string> want = fieldValues(m);
        EXPECT_EQ(fieldValues(throughWire(m)), want) << want[0];
        EXPECT_EQ(fieldValues(throughRow(m)), want) << want[0];
    }
}

TEST(MetricsFields, RowAxesAndTimingCrossTheRowCodecExactly)
{
    engine::SweepPoint p;
    p.index = 9;
    p.app_name = "IM-semi";
    p.metrics = baseMetrics();
    p.backend = p.metrics.backend;
    p.policy = 3;
    p.arbiter = 1;
    p.layout_objective = 2;
    p.epr_window = 16;
    p.kq = 1e6 / 7;
    p.defect = 0.05;
    p.wall_ms = 12.3456789;
    p.prepare_ms = 0.1;
    p.arena_allocs = (1ull << 60) | 3;
    p.arena_bytes = 4096;
    p.heap_allocs = 11;
    std::ostringstream os;
    engine::writeSweepRowLine(os, p);
    engine::SweepPoint back = engine::parseSweepRowLine(os.str());
    EXPECT_EQ(back.index, p.index);
    EXPECT_EQ(back.app_name, p.app_name);
    EXPECT_EQ(back.backend, p.backend);
    EXPECT_EQ(back.policy, p.policy);
    EXPECT_EQ(back.arbiter, p.arbiter);
    EXPECT_EQ(back.layout_objective, p.layout_objective);
    EXPECT_EQ(back.epr_window, p.epr_window);
    EXPECT_EQ(back.kq, p.kq);
    EXPECT_EQ(back.defect, p.defect);
    EXPECT_EQ(back.wall_ms, p.wall_ms);
    EXPECT_EQ(back.prepare_ms, p.prepare_ms);
    EXPECT_EQ(back.arena_allocs, p.arena_allocs);
    EXPECT_EQ(back.arena_bytes, p.arena_bytes);
    EXPECT_EQ(back.heap_allocs, p.heap_allocs);
    EXPECT_EQ(fieldValues(back.metrics), fieldValues(p.metrics));
}

} // namespace
} // namespace qsurf
