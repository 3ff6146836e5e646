/**
 * @file
 * Google-benchmark microbenchmarks and ablations backing the design
 * choices DESIGN.md calls out: routing strategy, layout
 * optimization, drop/re-inject, and the partitioner itself.
 */

#include <benchmark/benchmark.h>

#include "apps/apps.h"
#include "braid/scheduler.h"
#include "circuit/decompose.h"
#include "common/logging.h"
#include "common/rng.h"
#include "network/route.h"
#include "partition/layout.h"

namespace {

using namespace qsurf;

circuit::Circuit
braidWorkload()
{
    apps::GenOptions opts;
    opts.problem_size = 24;
    opts.max_iterations = 2;
    return circuit::decompose(
        apps::generate(apps::AppKind::IsingSemi, opts));
}

void
BM_XyRoute(benchmark::State &state)
{
    auto span = static_cast<int>(state.range(0));
    for (auto _ : state) {
        network::Path p =
            network::xyRoute(Coord{0, 0}, Coord{span, span});
        benchmark::DoNotOptimize(p);
    }
}
BENCHMARK(BM_XyRoute)->Arg(8)->Arg(32)->Arg(128);

void
BM_AdaptiveRouteEmptyMesh(benchmark::State &state)
{
    auto span = static_cast<int>(state.range(0));
    network::Mesh mesh(span + 1, span + 1);
    network::BfsScratch scratch;
    for (auto _ : state) {
        auto p = network::adaptiveRoute(mesh, Coord{0, 0},
                                        Coord{span, span}, 1, scratch);
        benchmark::DoNotOptimize(p);
    }
}
BENCHMARK(BM_AdaptiveRouteEmptyMesh)->Arg(8)->Arg(32)->Arg(64);

void
BM_Bisect(benchmark::State &state)
{
    auto n = static_cast<int>(state.range(0));
    partition::Graph g(n);
    Rng edges(7);
    for (int i = 0; i < 4 * n; ++i) {
        auto u = static_cast<int>(edges.below(n));
        auto v = static_cast<int>(edges.below(n));
        if (u != v)
            g.addEdge(u, v, 1 + static_cast<int64_t>(edges.below(9)));
    }
    for (auto _ : state) {
        Rng rng(13);
        auto cut = partition::bisect(g, rng);
        benchmark::DoNotOptimize(cut);
    }
}
BENCHMARK(BM_Bisect)->Arg(64)->Arg(512)->Arg(2048);

void
BM_GridLayout(benchmark::State &state)
{
    auto n = static_cast<int>(state.range(0));
    partition::Graph g(n);
    for (int i = 0; i + 1 < n; ++i)
        g.addEdge(i, i + 1, 10);
    auto [w, h] = partition::gridShape(n);
    for (auto _ : state) {
        auto layout = partition::layoutOnGrid(g, w, h, 3);
        benchmark::DoNotOptimize(layout);
    }
}
BENCHMARK(BM_GridLayout)->Arg(64)->Arg(256)->Arg(1024);

/** Ablation: braid scheduling under each policy. */
void
BM_BraidPolicy(benchmark::State &state)
{
    static const circuit::Circuit circ = braidWorkload();
    auto policy = static_cast<braid::Policy>(state.range(0));
    braid::BraidOptions opts;
    opts.code_distance = 3;
    uint64_t cycles = 0;
    for (auto _ : state) {
        auto r = braid::scheduleBraids(circ, policy, opts);
        cycles = r.schedule_cycles;
        benchmark::DoNotOptimize(r);
    }
    state.counters["schedule_cycles"] =
        static_cast<double>(cycles);
}
BENCHMARK(BM_BraidPolicy)->DenseRange(0, braid::num_policies - 1);

/** Ablation: route adaptivity and drop/re-inject on/off. */
void
BM_BraidAdaptivityAblation(benchmark::State &state)
{
    static const circuit::Circuit circ = braidWorkload();
    bool enable = state.range(0) != 0;
    braid::BraidOptions opts;
    opts.code_distance = 3;
    if (!enable) {
        // Effectively disable YX fallback, BFS detours and drops.
        opts.adapt_timeout = 1 << 20;
        opts.bfs_timeout = 1 << 20;
        opts.drop_timeout = 1 << 20;
    }
    uint64_t cycles = 0;
    for (auto _ : state) {
        auto r = braid::scheduleBraids(circ, braid::Policy::Combined,
                                       opts);
        cycles = r.schedule_cycles;
        benchmark::DoNotOptimize(r);
    }
    state.counters["schedule_cycles"] =
        static_cast<double>(cycles);
}
BENCHMARK(BM_BraidAdaptivityAblation)->Arg(0)->Arg(1);

} // namespace

int
main(int argc, char **argv)
{
    qsurf::setQuiet(true);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
