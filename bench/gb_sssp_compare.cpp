// Wall-clock comparison of all SSSP implementations (engineering evidence,
// not a paper table): Radius-Stepping vs Dijkstra, Bellman-Ford (seq +
// parallel) and Delta-stepping, on a weighted road network and a
// scale-free graph.
#include <benchmark/benchmark.h>

#include "baseline/bellman_ford.hpp"
#include "baseline/delta_stepping.hpp"
#include "baseline/dijkstra.hpp"
#include "core/radius_stepping.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "shortcut/shortcut.hpp"

namespace {

using namespace rs;

struct Fixture {
  Graph graph;
  PreprocessResult pre;
};

const Fixture& road_fixture() {
  static const Fixture f = [] {
    Fixture out;
    out.graph = assign_uniform_weights(gen::road_network(96, 96, 7), 3);
    PreprocessOptions opts;
    opts.rho = 48;
    opts.k = 3;
    out.pre = preprocess(out.graph, opts);
    return out;
  }();
  return f;
}

const Fixture& web_fixture() {
  static const Fixture f = [] {
    Fixture out;
    out.graph = assign_uniform_weights(gen::barabasi_albert(12000, 6, 5), 4);
    PreprocessOptions opts;
    opts.rho = 48;
    opts.k = 3;
    opts.settle_ties = false;
    out.pre = preprocess(out.graph, opts);
    return out;
  }();
  return f;
}

const Fixture& fixture(int idx) {
  return idx == 0 ? road_fixture() : web_fixture();
}

void args(benchmark::internal::Benchmark* b) {
  b->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
}

void BM_Dijkstra(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dijkstra(f.graph, 0));
  }
}
BENCHMARK(BM_Dijkstra)->Apply(args);

void BM_BellmanFordSeq(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bellman_ford(f.graph, 0));
  }
}
BENCHMARK(BM_BellmanFordSeq)->Apply(args);

void BM_BellmanFordParallel(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bellman_ford_parallel(f.graph, 0));
  }
}
BENCHMARK(BM_BellmanFordParallel)->Apply(args);

void BM_DeltaStepping(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(delta_stepping(f.graph, 0));
  }
}
BENCHMARK(BM_DeltaStepping)->Apply(args);

void BM_RadiusStepping(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(radius_stepping(f.pre.graph, 0, f.pre.radius));
  }
}
BENCHMARK(BM_RadiusStepping)->Apply(args);

void BM_RadiusSteppingNoShortcuts(benchmark::State& state) {
  // Radii only, original graph: same steps, more substeps.
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(radius_stepping(f.graph, 0, f.pre.radius));
  }
}
BENCHMARK(BM_RadiusSteppingNoShortcuts)->Apply(args);

}  // namespace

BENCHMARK_MAIN();
