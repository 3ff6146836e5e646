#include "corpus.h"

#include <utility>
#include <sstream>

#include "common/rng.h"
#include "engine/registry.h"
#include "qasm/writer.h"

namespace qbench::corpus {

namespace be = qsurf::engine::backends;
using qsurf::apps::AppKind;
using qsurf::apps::GenOptions;

uint64_t
mix(uint64_t a, uint64_t b)
{
    uint64_t x = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

// ------------------------------------------------------- contended-sweep

namespace {

/** Seeded layouts per instance: the sum over them keeps the run's
 *  total work steady from one seed to the next. */
constexpr int kLayouts = 6;

struct SweepSizing
{
    const char *backend;
    int im_sites;  ///< IM-semi{n, 8}.
    int sha_rounds; ///< SHA-1{n}.
};

/** Surgery is ~5x slower per instance than hybrid and braid on the
 *  same circuit, so those two get larger instances to carry a
 *  comparable share of the run. */
constexpr SweepSizing kSweepSizing[] = {
    {be::surgery_sim, 8, 4},
    {be::hybrid_mixed, 32, 12},
    {be::double_defect, 48, 16},
};

} // namespace

std::vector<qsurf::engine::SweepGrid>
contendedGrids(uint64_t seed)
{
    std::vector<qsurf::engine::SweepGrid> grids;
    for (const SweepSizing &s : kSweepSizing) {
        qsurf::engine::SweepGrid grid;
        // Repeated app points get distinct layout seeds: the driver
        // mixes the base seed with each point's index.
        for (int k = 0; k < kLayouts; ++k) {
            grid.apps.push_back(
                {AppKind::IsingSemi, GenOptions{s.im_sites, 8}});
            grid.apps.push_back(
                {AppKind::SHA1, GenOptions{s.sha_rounds, 0}});
        }
        grid.backends = {s.backend};
        grid.distances = {kSweepDistance};
        grid.base.seed = mix(seed, grids.size());
        grids.push_back(std::move(grid));
    }
    return grids;
}

// ---------------------------------------------------------- qasm-compile

namespace {

/** A CNOT ring plus chords drawn from @p rng: wide, sparse and
 *  shallow, the shape where layout (not the claim loop) dominates
 *  compile time. */
qsurf::circuit::Circuit
ringWithChords(int qubits, qsurf::Rng &rng)
{
    using qsurf::circuit::GateKind;
    qsurf::circuit::Circuit c("ring" + std::to_string(qubits), qubits);
    for (int q = 0; q < qubits; ++q)
        c.addGate(GateKind::H, q);
    for (int round = 0; round < 2; ++round) {
        for (int q = 0; q < qubits; ++q)
            c.addGate(GateKind::CNOT, q, (q + 1) % qubits);
        for (int chord = 0; chord < qubits / 8; ++chord) {
            auto a = static_cast<int>(rng.below(qubits));
            auto b = static_cast<int>(
                (a + 2 + rng.below(qubits - 3)) % qubits);
            c.addGate(GateKind::CNOT, a, b);
        }
        for (int q = round; q < qubits; q += 4)
            c.addGate(GateKind::T, q);
    }
    for (int q = 0; q < qubits; ++q)
        c.addGate(GateKind::MeasZ, q);
    return c;
}

/** A ripple-carry adder built from modules, called @p reps times
 *  over @p bits-bit registers: exercises module flattening. */
std::string
hierarchicalAdder(int bits, int reps, qsurf::Rng &rng)
{
    std::ostringstream os;
    os << "# ripple-carry adder, " << bits << " bits x " << reps
       << " calls\n"
       << "qbit a[" << bits << "];\nqbit b[" << bits
       << "];\nqbit carry[1];\ncbit out[" << bits << "];\n\n"
       << "module maj(x, y, z) {\n  CNOT z, y;\n  CNOT z, x;\n"
          "  Toffoli x, y, z;\n}\n"
       << "module uma(x, y, z) {\n  Toffoli x, y, z;\n  CNOT z, x;\n"
          "  CNOT x, y;\n}\n"
       << "module phase(x, y) {\n  T x;\n  CNOT x, y;\n"
          "  Rz(0.392699) y;\n  CNOT x, y;\n  Tdag x;\n}\n\n";
    for (int r = 0; r < reps; ++r) {
        os << "maj carry[0], b[0], a[0];\n";
        for (int i = 1; i < bits; ++i)
            os << "maj a[" << i - 1 << "], b[" << i << "], a[" << i
               << "];\n";
        for (int i = bits - 1; i >= 1; --i)
            os << "uma a[" << i - 1 << "], b[" << i << "], a[" << i
               << "];\n";
        os << "uma carry[0], b[0], a[0];\n";
        auto q = rng.below(bits - 1);
        os << "phase a[" << q << "], b[" << q + 1 << "];\n";
    }
    for (int i = 0; i < bits; ++i)
        os << "MeasZ b[" << i << "] -> out[" << i << "];\n";
    return os.str();
}

QasmProgram
program(std::string id, std::string source,
        std::vector<std::string> backends, uint64_t seed)
{
    QasmProgram p;
    p.id = std::move(id);
    p.source = std::move(source);
    p.config.use_cache = false; // every compile is cold
    p.config.backends = std::move(backends);
    p.config.seed = seed;
    return p;
}

} // namespace

std::vector<QasmProgram>
qasmCorpus(uint64_t seed)
{
    // Layouts and ring chords are fixed: the corridor objective's cost
    // on a 256-qubit ring moves 2x with them, which would make the
    // pass time a property of the seed.  The seed places the adders'
    // phase gates and draws the compile order.
    const uint64_t fixed = 0x9a5e;
    qsurf::Rng rng(mix(seed, fixed));
    qsurf::Rng chords(fixed);
    std::vector<QasmProgram> corpus;
    auto layoutSeed = [&] { return mix(fixed, corpus.size()); };

    // Every app generator at two sizes on the planar simulator and the
    // analytic models.  Sizes are fixed: SQ's cost grows ~40x from
    // n=8 to n=16, so a seeded size would swamp the pass time.
    const std::vector<std::string> model_backends = {
        be::planar, be::planar_model, be::double_defect_model,
        be::surgery_model};
    struct AppSize
    {
        AppKind kind;
        int size;
        int iterations;
    };
    const AppSize app_sizes[] = {
        {AppKind::GSE, 6, 0},         {AppKind::GSE, 10, 0},
        {AppKind::SQ, 8, 0},          {AppKind::SQ, 12, 0},
        {AppKind::SHA1, 8, 0},        {AppKind::SHA1, 24, 0},
        {AppKind::IsingSemi, 64, 4},  {AppKind::IsingSemi, 256, 4},
        {AppKind::IsingFull, 32, 4},  {AppKind::IsingFull, 96, 4},
    };
    for (const AppSize &a : app_sizes) {
        qsurf::circuit::Circuit c = qsurf::apps::generate(
            a.kind, GenOptions{a.size, a.iterations});
        std::string id = qsurf::apps::appSpec(a.kind).name + "{"
            + std::to_string(a.size) + "}";
        corpus.push_back(program(id, qsurf::qasm::writeString(c),
                                 model_backends, layoutSeed()));
    }

    // Hierarchical module programs through the default toolflow
    // backends (planar and double-defect).
    for (int bits : {8, 16}) {
        std::string id = "adder{" + std::to_string(bits) + "}";
        corpus.push_back(program(id, hierarchicalAdder(bits, 6, rng),
                                 {}, layoutSeed()));
    }

    // Wide sparse programs on the patch machines under every layout
    // objective: corridor refinement dominates here.
    for (int qubits : {96, 160, 256}) {
        std::string text =
            qsurf::qasm::writeString(ringWithChords(qubits, chords));
        for (int objective = 0; objective < 3; ++objective) {
            QasmProgram p = program(
                "ring{" + std::to_string(qubits) + "}/obj"
                    + std::to_string(objective),
                text, {be::surgery_sim, be::hybrid_mixed},
                layoutSeed());
            p.config.layout_objective = objective;
            corpus.push_back(std::move(p));
        }
    }

    // Serial apps on the three mesh simulators at a large distance:
    // fast-forward skips most cycles, so prepare dominates.
    for (AppKind kind : {AppKind::GSE, AppKind::SQ}) {
        GenOptions gen = qsurf::apps::defaultOptions(kind);
        qsurf::circuit::Circuit c = qsurf::apps::generate(kind, gen);
        QasmProgram p = program(
            qsurf::apps::appSpec(kind).name + "/d25",
            qsurf::qasm::writeString(c),
            {be::surgery_sim, be::hybrid_mixed, be::double_defect},
            layoutSeed());
        p.config.force_distance = 25;
        corpus.push_back(std::move(p));
    }

    for (size_t i = corpus.size(); i > 1; --i)
        std::swap(corpus[i - 1], corpus[rng.below(i)]);
    return corpus;
}

// ----------------------------------------------------------- service-mix

std::vector<qsurf::service::CompileRequest>
requestCatalog()
{
    // Fixed, so every seed sends the same requests; the seed draws the
    // traffic (connectionSequence).  Layout seeds of the heavy
    // requests swing their run time by up to 2x, which would make the
    // tail latency a property of the seed rather than of the service.
    const uint64_t seed = 0x5e41ce;
    using qsurf::service::CompileRequest;
    std::vector<CompileRequest> programs;
    auto add = [&](AppKind kind, GenOptions gen, const char *backend,
                   int distance) {
        CompileRequest r;
        r.app = kind;
        r.gen = gen;
        r.backend = backend;
        r.config.code_distance = distance;
        r.config.seed = mix(seed, programs.size());
        programs.push_back(std::move(r));
    };

    // Quick requests, under 3 ms: analytic models and serial apps on
    // every simulator.  They are a third of the traffic, so the median
    // latency falls inside the long-request plateau and not on the
    // cliff between the two classes.
    const char *models[] = {be::planar_model, be::double_defect_model,
                            be::surgery_model, be::planar_model};
    const AppKind model_apps[] = {AppKind::GSE, AppKind::SQ,
                                  AppKind::SHA1, AppKind::IsingSemi};
    for (int i = 0; i < 4; ++i)
        add(model_apps[i], qsurf::apps::defaultOptions(model_apps[i]),
            models[i], 0);
    add(AppKind::GSE, GenOptions{6, 2}, be::planar, 5);
    add(AppKind::SQ, GenOptions{6, 2}, be::surgery_sim, 5);
    add(AppKind::GSE, GenOptions{6, 2}, be::hybrid_mixed, 5);
    add(AppKind::SQ, GenOptions{6, 2}, be::double_defect, 5);

    // Contended parallel apps on three layouts each, sized per
    // scheduler to take 70-170 ms, so the tail is a plateau and both
    // percentiles sit inside it.
    for (int layout = 0; layout < 3; ++layout) {
        add(AppKind::IsingSemi, GenOptions{8, 4}, be::surgery_sim, 9);
        add(AppKind::SHA1, GenOptions{4, 0}, be::surgery_sim, 9);
        add(AppKind::IsingSemi, GenOptions{32, 4}, be::hybrid_mixed, 9);
        add(AppKind::SHA1, GenOptions{12, 0}, be::hybrid_mixed, 9);
        add(AppKind::IsingSemi, GenOptions{32, 4}, be::double_defect, 9);
        add(AppKind::SHA1, GenOptions{12, 0}, be::double_defect, 9);
    }

    // Each program clean, then on a damaged fabric.
    std::vector<CompileRequest> catalog;
    for (const CompileRequest &r : programs) {
        catalog.push_back(r);
        CompileRequest damaged = r;
        damaged.config.defect_density = 0.1;
        damaged.config.defect_seed = mix(seed, 0xdefec7);
        catalog.push_back(std::move(damaged));
    }
    return catalog;
}

std::vector<size_t>
connectionSequence(uint64_t seed, size_t catalog, int conn, int pass)
{
    std::vector<size_t> order(catalog);
    for (size_t i = 0; i < catalog; ++i)
        order[i] = i;
    qsurf::Rng rng(mix(mix(seed, 0xc0 + conn), pass));
    for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

} // namespace qbench::corpus
