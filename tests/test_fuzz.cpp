// Randomized cross-validation: every SSSP implementation in the repository
// against Dijkstra, over random graph shapes, weight ranges, sources and
// radius-stepping parameters. One parameterized case = one full pipeline.
#include <gtest/gtest.h>

#include "baseline/bellman_ford.hpp"
#include "baseline/delta_stepping.hpp"
#include "baseline/dijkstra.hpp"
#include "core/radius_stepping.hpp"
#include "core/rs_bst.hpp"
#include "core/sp_tree.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "graph/weights.hpp"
#include "core/radii.hpp"
#include "parallel/rng.hpp"
#include "shortcut/shortcut.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

Graph random_graph(std::uint64_t seed) {
  const SplitRng rng(seed);
  Graph g;
  switch (rng.bounded(0, 1, 6)) {
    case 0:
      g = gen::grid2d(static_cast<Vertex>(5 + rng.bounded(0, 2, 15)),
                      static_cast<Vertex>(5 + rng.bounded(0, 3, 15)));
      break;
    case 1:
      g = gen::road_network(static_cast<Vertex>(6 + rng.bounded(0, 4, 10)),
                            static_cast<Vertex>(6 + rng.bounded(0, 5, 10)),
                            seed);
      break;
    case 2:
      g = gen::barabasi_albert(
          static_cast<Vertex>(100 + rng.bounded(0, 6, 300)),
          static_cast<Vertex>(2 + rng.bounded(0, 7, 4)), seed);
      break;
    case 3:
      g = largest_component(gen::erdos_renyi(
          static_cast<Vertex>(80 + rng.bounded(0, 8, 200)),
          static_cast<EdgeId>(200 + rng.bounded(0, 9, 600)), seed));
      break;
    case 4:
      g = gen::grid3d(static_cast<Vertex>(3 + rng.bounded(0, 10, 5)),
                      static_cast<Vertex>(3 + rng.bounded(0, 11, 5)),
                      static_cast<Vertex>(3 + rng.bounded(0, 12, 5)));
      break;
    default:
      g = gen::bipartite_chain(static_cast<Vertex>(3 + rng.bounded(0, 13, 6)),
                               static_cast<Vertex>(2 + rng.bounded(0, 14, 8)));
  }
  const Weight hi =
      static_cast<Weight>(1 + rng.bounded(0, 15, 10'000));
  return assign_uniform_weights(g, seed + 1, 1, hi);
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, EveryAlgorithmAgreesOnRandomPipelines) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const SplitRng rng(seed + 5000);
  const Graph g = random_graph(seed);
  const Vertex n = g.num_vertices();
  const Vertex src = static_cast<Vertex>(rng.bounded(0, 0, n));

  const auto ref = dijkstra(g, src);

  // Baselines.
  ASSERT_EQ(bellman_ford(g, src), ref) << "seed " << seed;
  ASSERT_EQ(bellman_ford_parallel(g, src), ref) << "seed " << seed;
  const Dist delta = 1 + rng.bounded(0, 1, g.max_weight());
  ASSERT_EQ(delta_stepping(g, src, delta), ref)
      << "seed " << seed << " delta " << delta;

  // Radius-Stepping with a random preprocessing configuration.
  PreprocessOptions opts;
  opts.rho = static_cast<Vertex>(2 + rng.bounded(0, 2, 24));
  opts.k = static_cast<Vertex>(1 + rng.bounded(0, 3, 4));
  opts.settle_ties = rng.bounded(0, 4, 2) == 0;
  switch (rng.bounded(0, 5, 4)) {
    case 0:
      opts.heuristic = ShortcutHeuristic::kNone;
      break;
    case 1:
      opts.heuristic = ShortcutHeuristic::kFull1Rho;
      break;
    case 2:
      opts.heuristic = ShortcutHeuristic::kGreedy;
      break;
    default:
      opts.heuristic = ShortcutHeuristic::kDP;
  }
  const PreprocessResult pre = preprocess(g, opts);

  RunStats flat_stats, bst_stats;
  const auto flat = radius_stepping(pre.graph, src, pre.radius, &flat_stats);
  const auto bst = radius_stepping_bst(pre.graph, src, pre.radius, &bst_stats);
  ASSERT_EQ(flat, ref) << "seed " << seed << " " << to_string(opts.heuristic)
                       << " rho=" << opts.rho << " k=" << opts.k;
  ASSERT_EQ(bst, flat) << "seed " << seed;
  ASSERT_EQ(flat_stats.steps, bst_stats.steps) << "seed " << seed;

  // Substep bound (Theorem 3.2) whenever shortcuts guarantee it.
  if (opts.heuristic == ShortcutHeuristic::kFull1Rho) {
    ASSERT_LE(flat_stats.max_substeps_in_step, 3u) << "seed " << seed;
  } else if (opts.heuristic != ShortcutHeuristic::kNone) {
    ASSERT_LE(flat_stats.max_substeps_in_step, opts.k + 2u) << "seed " << seed;
  }

  // Shortest-path tree reconstruction is always consistent.
  const auto parent = parents_from_distances(g, src, flat);
  ASSERT_TRUE(validate_shortest_path_tree(g, src, flat, parent))
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 32));

// Regression sweep over the adversarial palette: directed graphs with
// self-loops and parallel arcs kept in the CSR. The preprocessing machinery
// assumes undirected inputs, so this sweeps the raw engines with
// constructed radii (correct for any radii by Theorem 3.1) instead.
class AdversarialFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(AdversarialFuzzTest, EnginesExactOnDirectedSelfLoopMultigraphs) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const auto& c : test::adversarial_suite(seed)) {
    const Vertex n = c.graph.num_vertices();
    const SplitRng rng(seed + 9000);
    for (int s = 0; s < 3; ++s) {
      const Vertex src =
          static_cast<Vertex>(rng.bounded(1, static_cast<std::uint64_t>(s), n));
      const auto ref = dijkstra(c.graph, src);
      ASSERT_EQ(bellman_ford(c.graph, src), ref) << c.name << " src " << src;
      ASSERT_EQ(bellman_ford_parallel(c.graph, src), ref)
          << c.name << " src " << src;
      ASSERT_EQ(delta_stepping(c.graph, src), ref) << c.name << " src " << src;
      ASSERT_EQ(radius_stepping(c.graph, src, dijkstra_radii(n)), ref)
          << c.name << " src " << src;
      ASSERT_EQ(radius_stepping(c.graph, src, bellman_ford_radii(n)), ref)
          << c.name << " src " << src;
      // The Algorithm 2 reference takes the flat engine's step sequence.
      const auto radius = constant_radii(n, 33);
      RunStats flat_stats, bst_stats;
      ASSERT_EQ(radius_stepping(c.graph, src, radius, &flat_stats), ref)
          << c.name << " src " << src;
      ASSERT_EQ(radius_stepping_bst(c.graph, src, radius, &bst_stats), ref)
          << c.name << " src " << src;
      ASSERT_EQ(bst_stats.steps, flat_stats.steps) << c.name << " src " << src;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdversarialFuzzTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace rs
