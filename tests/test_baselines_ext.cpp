// Extended baselines: random geometric graphs and the Ullman–Yannakakis
// hub shortcutting (the paper's Section-6 related-work technique).
#include <gtest/gtest.h>

#include "baseline/bfs.hpp"
#include "baseline/dijkstra.hpp"
#include "baseline/uy_shortcut.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

TEST(RandomGeometric, StructureAndDeterminism) {
  const Graph g = gen::random_geometric(3000, 0.05, 5);
  EXPECT_EQ(g.num_vertices(), 3000u);
  EXPECT_GT(g.num_undirected_edges(), 3000u);  // well above a tree
  // Weights are scaled Euclidean lengths in [1, 1000].
  EXPECT_GE(g.min_weight(), 1u);
  EXPECT_LE(g.max_weight(), 1000u);
  EXPECT_EQ(g, gen::random_geometric(3000, 0.05, 5));
  EXPECT_NE(g, gen::random_geometric(3000, 0.05, 6));
}

TEST(RandomGeometric, ConnectivityAtWhpRadius) {
  // radius well above sqrt(2 ln n / (pi n)) => connected (fixed seed).
  const Vertex n = 2000;
  const double r = 0.08;
  const Graph g = largest_component(gen::random_geometric(n, r, 3));
  EXPECT_GT(g.num_vertices(), n * 95 / 100);
}

TEST(RandomGeometric, RejectsBadParameters) {
  EXPECT_THROW(gen::random_geometric(1, 0.1, 1), std::invalid_argument);
  EXPECT_THROW(gen::random_geometric(10, 0.0, 1), std::invalid_argument);
  EXPECT_THROW(gen::random_geometric(10, 1.5, 1), std::invalid_argument);
}

TEST(UYShortcut, ExactWithUnlimitedHops) {
  for (const auto& [name, g] : test::weighted_suite(2)) {
    const UYShortcutResult pre =
        uy_preprocess(g, std::max<Vertex>(2, g.num_vertices() / 10), 7,
                      /*hop_limit=*/g.num_vertices());
    const auto d = uy_query(pre, 0, g.num_vertices());
    EXPECT_EQ(d, dijkstra(g, 0)) << name;
  }
}

TEST(UYShortcut, AllHubsMakeQueriesTwoHops) {
  const Graph g = test::weighted_suite(3)[0].graph;
  const Vertex n = g.num_vertices();
  const UYShortcutResult pre = uy_preprocess(g, n, 1, n);
  std::size_t rounds = 0;
  const auto d = uy_query(pre, 5, /*hop_limit=*/2, &rounds);
  EXPECT_EQ(d, dijkstra(g, 5));
  EXPECT_LE(rounds, 2u);
}

TEST(UYShortcut, ShortcutsPreserveDistances) {
  const Graph g = test::weighted_suite(4)[2].graph;  // road
  const UYShortcutResult pre = uy_preprocess(g, 20, 5, g.num_vertices());
  EXPECT_GT(pre.added_edges, 0u);
  EXPECT_EQ(dijkstra(pre.graph, 0), dijkstra(g, 0));
  EXPECT_EQ(pre.hubs.size(), 20u);
}

TEST(UYShortcut, DefaultHopLimitIsExactOnSmallGraphs) {
  // The w.h.p. setting; verified deterministic-exact for these seeds.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Graph g = test::weighted_suite(seed)[0].graph;
    const UYShortcutResult pre = uy_preprocess(g, g.num_vertices() / 4, seed);
    EXPECT_EQ(uy_query(pre, 1), dijkstra(g, 1)) << seed;
  }
}

TEST(UYShortcut, RejectsBadParameters) {
  const Graph g = gen::chain(5);
  EXPECT_THROW(uy_preprocess(g, 0, 1), std::invalid_argument);
  EXPECT_THROW(uy_preprocess(g, 6, 1), std::invalid_argument);
  const UYShortcutResult pre = uy_preprocess(g, 2, 1);
  EXPECT_THROW(uy_query(pre, 9), std::invalid_argument);
}

TEST(UYShortcut, RejectsDirectedRing) {
  // merge_edges adds the hub shortcuts in both directions, which over
  // one-way arcs would shorten distances.
  const Graph ring = test::one_way_ring(10);
  EXPECT_THROW(uy_preprocess(ring, 2, 1), std::invalid_argument);
  EXPECT_THROW(uy_preprocess(ring, 10, 1, 10), std::invalid_argument);
}

}  // namespace
}  // namespace rs
