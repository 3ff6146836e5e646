/**
 * @file
 * End-to-end toolflow tests: the full Figure-4 pipeline on generated
 * applications and on QASM source, plus report formatting.
 */

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "braid/scheduler.h"
#include "common/logging.h"
#include "engine/registry.h"
#include "obs/trace.h"
#include "toolflow/toolflow.h"

namespace qsurf::toolflow {
namespace {

circuit::Circuit
smallApp(apps::AppKind kind)
{
    apps::GenOptions opts;
    opts.problem_size = 8;
    opts.max_iterations = 2;
    return apps::generate(kind, opts);
}

TEST(Toolflow, RunsOnSerialApp)
{
    Report r = run(smallApp(apps::AppKind::GSE));
    EXPECT_EQ(r.app_name, "GSE");
    EXPECT_GT(r.counts.total, 0u);
    EXPECT_GE(r.code_distance, 3);
    EXPECT_GT(r.planar.schedule_cycles, 0u);
    EXPECT_GT(r.double_defect.schedule_cycles, 0u);
    EXPECT_GE(r.planar.ratio(), 1.0);
    EXPECT_GE(r.double_defect.ratio(), 1.0);
}

TEST(Toolflow, SmallAppsRecommendPlanar)
{
    // The paper's headline: at small computation sizes the smaller
    // planar tiles win the space-time product.
    Report r = run(smallApp(apps::AppKind::SQ));
    EXPECT_EQ(r.recommended(), qec::CodeKind::Planar);
    EXPECT_LT(r.planar.spaceTime(), r.double_defect.spaceTime());
}

TEST(Toolflow, DistanceRespectsTechnology)
{
    Config good, bad;
    good.tech.p_physical = 1e-8;
    bad.tech.p_physical = 1e-4;
    Report rg = run(smallApp(apps::AppKind::GSE), good);
    Report rb = run(smallApp(apps::AppKind::GSE), bad);
    EXPECT_LE(rg.code_distance, rb.code_distance)
        << "faultier technology needs a larger code distance";
}

TEST(Toolflow, ForceDistanceOverrides)
{
    Config cfg;
    cfg.force_distance = 9;
    Report r = run(smallApp(apps::AppKind::GSE), cfg);
    EXPECT_EQ(r.code_distance, 9);
}

TEST(Toolflow, ForwardsRunConfigFieldsToTheBackends)
{
    // Config is a RunConfig: every field reaches the backends, not
    // only the ones the toolflow once copied by hand.
    Config tight;
    tight.backends = {engine::backends::double_defect};
    tight.max_cycles = 10;
    EXPECT_THROW(run(smallApp(apps::AppKind::GSE), tight),
                 qsurf::FatalError);
}

TEST(Toolflow, RejectsInheritedFieldsItWouldIgnore)
{
    Config distance;
    distance.code_distance = 5; // force_distance is the input.
    EXPECT_THROW(run(smallApp(apps::AppKind::SQ), distance),
                 qsurf::FatalError);
    obs::NullTraceRecorder recorder;
    Config traced;
    traced.trace = &recorder; // trace_path is the input.
    EXPECT_THROW(run(smallApp(apps::AppKind::SQ), traced),
                 qsurf::FatalError);
}

TEST(Toolflow, PhysicalQubitsScaleWithCode)
{
    Report r = run(smallApp(apps::AppKind::SQ));
    // Double-defect tiles are twice planar, x the smaller planar
    // overhead factor: the ratio must be > 1.
    EXPECT_GT(r.double_defect.physical_qubits,
              r.planar.physical_qubits);
}

TEST(Toolflow, QasmEntryPointMatchesCircuitPath)
{
    Report r = runQasm(apps::sampleHierarchicalQasm());
    EXPECT_GT(r.counts.total, 0u);
    EXPECT_GT(r.planar.schedule_cycles, 0u);
}

TEST(Toolflow, BadQasmIsFatal)
{
    EXPECT_THROW(runQasm("qbit q[1]; BOGUS q[0];"),
                 qsurf::FatalError);
}

TEST(Toolflow, EmptyCircuitIsFatal)
{
    circuit::Circuit c(2);
    EXPECT_THROW(run(c), qsurf::FatalError);
}

TEST(Toolflow, FormatMentionsKeyMetrics)
{
    Report r = run(smallApp(apps::AppKind::GSE));
    std::string s = format(r);
    for (const char *needle :
         {"logical ops", "parallelism factor", "code distance",
          "planar", "double-defect", "space-time", "recommended"})
        EXPECT_NE(s.find(needle), std::string::npos) << needle;
}

TEST(Toolflow, PolicyChoiceAffectsDoubleDefectOnly)
{
    Config p0, p6;
    p0.policy = static_cast<int>(braid::Policy::ProgramOrder);
    p6.policy = static_cast<int>(braid::Policy::Combined);
    circuit::Circuit c = smallApp(apps::AppKind::IsingFull);
    Report r0 = run(c, p0);
    Report r6 = run(c, p6);
    EXPECT_EQ(r0.planar.schedule_cycles, r6.planar.schedule_cycles);
    EXPECT_LE(r6.double_defect.schedule_cycles,
              r0.double_defect.schedule_cycles);
}

} // namespace
} // namespace qsurf::toolflow
