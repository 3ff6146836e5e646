/**
 * @file
 * Field-perturbation property tests of the identities that stand for
 * a RunConfig.  Every field engine::forEachField lists is set in turn
 * to a different valid value, so a field added later is covered
 * without editing this file.  Each perturbed config must:
 *
 *  (a) cross the CompileRequest and SweepGrid codecs bit-exactly;
 *  (b) change the sweep grid fingerprint;
 *  (c) get the same result from a reused machine artifact as from an
 *      inline run, whenever its artifactKey() matches the original's;
 *  (d) come back from a batching CompileService exactly as a direct
 *      Backend::run() computes it.
 *
 * Plus the damaged-twin regression: a damaged-fabric request batched
 * with its clean twin once ran on the clean machine.
 */

#include <gtest/gtest.h>

#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/apps.h"
#include "circuit/decompose.h"
#include "common/logging.h"
#include "engine/registry.h"
#include "engine/sweep.h"
#include "service/cache.h"
#include "service/service.h"
#include "service/wire.h"

#include "run_config_fields.h"

namespace qsurf {
namespace {

namespace wire = service::wire;

const std::vector<std::string> kSimulated = {
    engine::backends::double_defect, engine::backends::planar,
    engine::backends::surgery_sim, engine::backends::hybrid_mixed};

bool
sameMetrics(const engine::Metrics &a, const engine::Metrics &b)
{
    if (a.backend != b.backend || a.code_distance != b.code_distance
        || a.schedule_cycles != b.schedule_cycles
        || a.critical_path_cycles != b.critical_path_cycles
        || a.physical_qubits != b.physical_qubits
        || a.seconds != b.seconds
        || a.extras.size() != b.extras.size())
        return false;
    for (const auto &[name, v] : a.extras)
        if (v != b.extra(name))
            return false;
    return true;
}

/** The config every perturbation starts from: a small run whose
 *  fields all stay valid one perturbation away. */
engine::RunConfig
baseConfig()
{
    engine::RunConfig c;
    c.code_distance = 3;
    c.seed = 5;
    return c;
}

size_t
fieldCount()
{
    const engine::RunConfig c;
    size_t n = 0;
    engine::forEachField(c, [&n](const char *, const auto &) { ++n; });
    return n;
}

/**
 * Set field @p index of @p c to a different valid value, chosen by
 * type alone: flip a bool, step an int toward 1, give a 64-bit
 * integer a value no double can hold, double a double (0 becomes
 * 0.1), and give an empty string a one-dead-tile defect spec.
 * @return the field's name.
 */
std::string
perturb(engine::RunConfig &c, size_t index)
{
    std::string name;
    size_t k = 0;
    engine::forEachField(c, [&](const char *field, auto &v) {
        if (k++ != index)
            return;
        name = field;
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, bool>)
            v = !v;
        else if constexpr (std::is_same_v<T, int>)
            v = v > 1 ? v - 1 : v + 1;
        else if constexpr (std::is_same_v<T, uint64_t>)
            v = (v + 1) | (1ull << 60) | 1;
        else if constexpr (std::is_same_v<T, double>)
            v = v == 0 ? 0.1 : 2 * v;
        else
            v = v.empty() ? "{\"dead_tiles\": [[1, 1]]}" : "";
    });
    return name;
}

const circuit::Circuit &
smallCircuit()
{
    static const circuit::Circuit circ = circuit::decompose(
        apps::generate(apps::AppKind::SQ, {8, 1}));
    return circ;
}

engine::WorkItem
itemFor(const engine::RunConfig &config)
{
    engine::WorkItem item;
    item.app = apps::AppKind::SQ;
    item.app_name = apps::appSpec(item.app).name;
    item.circuit = &smallCircuit();
    item.config = config;
    return item;
}

service::CompileRequest
requestFor(const engine::RunConfig &config,
           const std::string &backend)
{
    service::CompileRequest req;
    req.app = apps::AppKind::SQ;
    req.gen = {8, 1};
    req.backend = backend;
    req.config = config;
    return req;
}

/** A backend whose run() waits until the gate opens. */
class GateBackend : public engine::Backend
{
  public:
    static constexpr const char *kName = "test/gate";

    std::string name() const override { return kName; }
    qec::CodeKind code() const override { return qec::CodeKind::Planar; }
    bool needsCircuit() const override { return false; }
    void prepare(const engine::WorkItem &) const override {}

    engine::Metrics
    run(const engine::WorkItem &) const override
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return open; });
        return {};
    }

    void
    set(bool is_open)
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            open = is_open;
        }
        cv.notify_all();
    }

  private:
    mutable std::mutex mutex;
    mutable std::condition_variable cv;
    bool open = true;
};

/**
 * A one-worker CompileService over the built-in backends plus the
 * gate: hold() parks the worker on a gate request, so every request
 * submitted before release() queues up and batches by its key, with
 * no dependence on timing.
 */
class GatedService
{
  public:
    GatedService()
    {
        engine::registerBuiltinBackends(registry);
        auto backend = std::make_unique<GateBackend>();
        gate = backend.get();
        registry.add(std::move(backend));
        service::CompileService::Options opts;
        opts.num_threads = 1;
        opts.cache = &cache;
        opts.registry = &registry;
        svc = std::make_unique<service::CompileService>(opts);
    }

    ~GatedService() { release(); }

    std::future<service::CompileResponse>
    hold()
    {
        gate->set(false);
        service::CompileRequest req;
        req.backend = GateBackend::kName;
        req.config.kq = 1; // No program to resolve.
        return svc->submit(req);
    }

    void release() { gate->set(true); }

    service::CompileService *operator->() { return svc.get(); }

  private:
    engine::Registry registry;
    service::PrepareCache cache;
    GateBackend *gate = nullptr;
    std::unique_ptr<service::CompileService> svc;
};

engine::Metrics
direct(const std::string &backend, const engine::RunConfig &config)
{
    return engine::Registry::global().get(backend).run(
        itemFor(config));
}

TEST(RunConfigFields, ListNamesEachFieldOnce)
{
    std::set<std::string> names;
    const engine::RunConfig c;
    engine::forEachField(c, [&names](const char *name, const auto &) {
        EXPECT_TRUE(names.insert(name).second) << name;
    });
    EXPECT_GE(names.size(), 25u);
    EXPECT_EQ(names.count("trace"), 0u);
}

TEST(RunConfigFields, SurviveBothWireCodecsBitExactly)
{
    for (size_t f = 0; f < fieldCount(); ++f) {
        engine::RunConfig c = baseConfig();
        std::string name = perturb(c, f);

        service::CompileRequest back = wire::decodeCompileRequest(
            wire::encodeCompileRequest(
                requestFor(c, engine::backends::planar)));
        EXPECT_EQ(testing::fieldValues(back.config),
                  testing::fieldValues(c))
            << name;

        engine::SweepGrid grid;
        grid.apps = {{apps::AppKind::SQ, {8, 1}, ""}};
        grid.backends = {engine::backends::planar};
        grid.base = c;
        engine::SweepGrid grid_back =
            wire::decodeSweepGrid(wire::encodeSweepGrid(grid));
        EXPECT_EQ(testing::fieldValues(grid_back.base),
                  testing::fieldValues(c))
            << name;
    }
}

TEST(RunConfigFields, ChangeTheSweepGridFingerprint)
{
    engine::SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 1}, ""}};
    grid.backends = {engine::backends::planar};
    grid.base = baseConfig();
    const uint64_t base_fp = engine::sweepGridFingerprint(grid);
    for (size_t f = 0; f < fieldCount(); ++f) {
        engine::SweepGrid perturbed = grid;
        std::string name = perturb(perturbed.base, f);
        EXPECT_NE(engine::sweepGridFingerprint(perturbed), base_fp)
            << name;
    }
}

TEST(RunConfigFields, ReusedArtifactNeverChangesAResult)
{
    setQuiet(true);
    const engine::WorkItem base = itemFor(baseConfig());
    for (const std::string &name : kSimulated) {
        const engine::Backend &backend =
            engine::Registry::global().get(name);
        const std::string base_key = backend.artifactKey(base);
        ASSERT_FALSE(base_key.empty()) << name;
        std::shared_ptr<const engine::PreparedArtifact> artifact =
            backend.buildArtifact(base);
        size_t shared = 0;
        for (size_t f = 0; f < fieldCount(); ++f) {
            engine::WorkItem item = base;
            std::string field = perturb(item.config, f);
            if (backend.artifactKey(item) != base_key)
                continue;
            ++shared;
            EXPECT_TRUE(sameMetrics(backend.run(item, artifact.get()),
                                    backend.run(item)))
                << name << " reused its artifact across " << field;
        }
        // Run-only fields (timeouts, technology, ...) exist on every
        // backend, so the reuse path is always exercised.
        EXPECT_GT(shared, 0u) << name;
    }
}

TEST(RunConfigFields, BatchedServiceMatchesDirectRun)
{
    setQuiet(true);
    // Per backend, the base config and every perturbation share one
    // batch key (same program, same backend) and so one batch.
    const size_t fields = fieldCount();
    GatedService svc;
    auto hold = svc.hold();
    std::vector<std::vector<std::future<service::CompileResponse>>>
        futures(kSimulated.size());
    for (size_t b = 0; b < kSimulated.size(); ++b) {
        futures[b].push_back(
            svc->submit(requestFor(baseConfig(), kSimulated[b])));
        for (size_t f = 0; f < fields; ++f) {
            engine::RunConfig c = baseConfig();
            perturb(c, f);
            futures[b].push_back(
                svc->submit(requestFor(c, kSimulated[b])));
        }
    }
    svc.release();
    ASSERT_TRUE(hold.get().ok());

    for (size_t b = 0; b < kSimulated.size(); ++b) {
        for (size_t i = 0; i < futures[b].size(); ++i) {
            engine::RunConfig c = baseConfig();
            std::string field = i == 0 ? "nothing" : perturb(c, i - 1);
            service::CompileResponse r = futures[b][i].get();
            ASSERT_TRUE(r.ok()) << field << ": " << r.error;
            EXPECT_EQ(r.batch_size, fields + 1);
            EXPECT_TRUE(sameMetrics(r.metrics, direct(kSimulated[b], c)))
                << kSimulated[b] << " perturbed " << field;
        }
    }
}

TEST(RunConfigFields, DamagedTwinBatchedBehindCleanRunsOnItsOwnMachine)
{
    // SQ{8,1} at d=5, once on a clean fabric and once at density
    // 0.10 / defect seed 7, queued together behind a held worker.
    // The batch key once ignored the damage, so the damaged twin ran
    // on the clean machine (surgery: 9284 cycles instead of its own
    // 9086).
    setQuiet(true);
    engine::RunConfig clean;
    clean.code_distance = 5;
    engine::RunConfig damaged = clean;
    damaged.defect_density = 0.10;
    damaged.defect_seed = 7;
    for (const char *name :
         {engine::backends::surgery_sim, engine::backends::double_defect,
          engine::backends::hybrid_mixed}) {
        GatedService svc;
        auto hold = svc.hold();
        auto clean_f = svc->submit(requestFor(clean, name));
        auto damaged_f = svc->submit(requestFor(damaged, name));
        svc.release();
        ASSERT_TRUE(hold.get().ok());
        service::CompileResponse r_clean = clean_f.get();
        service::CompileResponse r_damaged = damaged_f.get();
        ASSERT_TRUE(r_clean.ok()) << r_clean.error;
        ASSERT_TRUE(r_damaged.ok()) << r_damaged.error;
        EXPECT_EQ(r_damaged.batch_size, 2u) << name;

        engine::Metrics d_clean = direct(name, clean);
        engine::Metrics d_damaged = direct(name, damaged);
        EXPECT_NE(d_clean.schedule_cycles, d_damaged.schedule_cycles)
            << name;
        EXPECT_TRUE(sameMetrics(r_clean.metrics, d_clean)) << name;
        EXPECT_TRUE(sameMetrics(r_damaged.metrics, d_damaged))
            << name << ": " << r_damaged.metrics.schedule_cycles
            << " served vs " << d_damaged.schedule_cycles << " direct";
    }
}

} // namespace
} // namespace qsurf
