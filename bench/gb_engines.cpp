// Flat engine vs the Algorithm 2 reference: the practical atomic-array
// engine against the faithful treap formulation (core/rs_bst.hpp).
// Quantifies the O(log n)-factor bookkeeping the paper's analysis charges.
#include <benchmark/benchmark.h>

#include "core/radii.hpp"
#include "core/radius_stepping.hpp"
#include "core/rs_bst.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "shortcut/ball_search.hpp"

namespace {

using namespace rs;

struct Setup {
  Graph weighted;
  std::vector<Dist> radius_w;
};

const Setup& setup() {
  static const Setup s = [] {
    Setup out;
    out.weighted = assign_uniform_weights(gen::grid2d(96, 96), 3);
    out.radius_w = all_radii(out.weighted, 32);
    return out;
  }();
  return s;
}

void BM_FlatEngine(benchmark::State& state) {
  const Setup& s = setup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(radius_stepping(s.weighted, 0, s.radius_w));
  }
}
BENCHMARK(BM_FlatEngine)->Unit(benchmark::kMillisecond);

void BM_BstEngine(benchmark::State& state) {
  const Setup& s = setup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(radius_stepping_bst(s.weighted, 0, s.radius_w));
  }
}
BENCHMARK(BM_BstEngine)->Unit(benchmark::kMillisecond);

void BM_FlatEngineRhoSweep(benchmark::State& state) {
  // Step-count vs work trade-off: same graph, radii from different rho.
  const Setup& s = setup();
  const Vertex rho = static_cast<Vertex>(state.range(0));
  const auto radius =
      rho == 1 ? dijkstra_radii(s.weighted.num_vertices())
               : all_radii(s.weighted, rho);
  for (auto _ : state) {
    benchmark::DoNotOptimize(radius_stepping(s.weighted, 0, radius));
  }
}
BENCHMARK(BM_FlatEngineRhoSweep)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
