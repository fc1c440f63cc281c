#include "shortcut/global_opt.hpp"

#include <gtest/gtest.h>

#include "baseline/dijkstra.hpp"
#include "core/radius_stepping.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "shortcut/kradius.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

class GlobalOptPropertyTest : public ::testing::TestWithParam<Vertex> {};

TEST_P(GlobalOptPropertyTest, ProducesValidKRhoGraph) {
  const Vertex k = GetParam();
  for (const auto& [name, g] : test::weighted_suite(3)) {
    PreprocessOptions opts;
    opts.rho = 12;
    opts.k = k;
    const PreprocessResult pre = preprocess_global(g, opts);
    EXPECT_TRUE(is_k_rho_graph(pre.graph, pre.radius, k))
        << name << " k=" << k;
    EXPECT_EQ(dijkstra(pre.graph, 0), dijkstra(g, 0)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, GlobalOptPropertyTest, ::testing::Values(1, 2, 3));

TEST(GlobalOpt, SubstepBoundHoldsDownstream) {
  for (const auto& [name, g] : test::weighted_suite(4)) {
    PreprocessOptions opts;
    opts.rho = 10;
    opts.k = 2;
    const PreprocessResult pre = preprocess_global(g, opts);
    RunStats stats;
    const auto d = radius_stepping(pre.graph, 0, pre.radius, &stats);
    EXPECT_LE(stats.max_substeps_in_step, opts.k + 2u) << name;
    EXPECT_EQ(d, dijkstra(g, 0)) << name;
  }
}

TEST(GlobalOpt, ChainMatchesPerTreeOptimum) {
  // Path of length 15 from vertex 0, rho covering the whole graph: the
  // optimum for one ball is ceil((depth - k) / k); the global pass from all
  // sources shares shortcuts but each ball's own cost is what matters here.
  const Graph g = assign_unit_weights(gen::chain(16));
  PreprocessOptions opts;
  opts.rho = 16;
  opts.k = 3;
  const PreprocessResult pre = preprocess_global(g, opts);
  EXPECT_TRUE(is_k_rho_graph(pre.graph, pre.radius, opts.k));
}

TEST(GlobalOpt, BroomCoversFanWithOneEdgePerSource) {
  // §4.2.1's counterexample: chain of length k then 10 leaves. From the
  // handle end, one shortcut (to the chain end) must suffice — the cover
  // rule hits the common ancestor.
  const Vertex k = 3;
  std::vector<EdgeTriple> edges;
  for (Vertex v = 0; v + 1 <= k; ++v) edges.push_back({v, v + 1, 1});
  for (Vertex leaf = k + 1; leaf < k + 11; ++leaf) {
    edges.push_back({k, leaf, 1});
  }
  const Graph g = build_graph(k + 11, edges);
  PreprocessOptions opts;
  opts.rho = g.num_vertices();
  opts.k = k;
  const PreprocessResult pre = preprocess_global(g, opts);
  // Source 0's ball needs exactly one edge (0, k); ball searches from other
  // sources may add their own, but (0, x) edges must number exactly 1 plus
  // the original (0, 1).
  EdgeId from_zero = pre.graph.degree(0) - g.degree(0);
  EXPECT_EQ(from_zero, 1u);
  EXPECT_TRUE(is_k_rho_graph(pre.graph, pre.radius, k));
}

TEST(GlobalOpt, SharesEdgesAcrossOverlappingBalls) {
  // On a grid, neighbouring sources have nearly identical balls; the global
  // pass must add (weakly) fewer edges than independent per-tree DP, which
  // cannot share. (Raw proposal counts compared; both exclude dedup.)
  const Graph g = assign_uniform_weights(gen::grid2d(16, 16), 7, 1, 1000);
  PreprocessOptions opts;
  opts.rho = 24;
  opts.k = 3;
  const PreprocessResult dp = preprocess(g, opts);
  const PreprocessResult global = preprocess_global(g, opts);
  EXPECT_LT(global.added_edges, dp.added_edges);
  EXPECT_TRUE(is_k_rho_graph(global.graph, global.radius, opts.k));
}

TEST(GlobalOpt, ExactRhoTieModeStaysValid) {
  for (const auto& [name, g] : test::unweighted_suite(5)) {
    PreprocessOptions opts;
    opts.rho = 8;
    opts.k = 2;
    opts.settle_ties = false;
    const PreprocessResult pre = preprocess_global(g, opts);
    EXPECT_TRUE(is_k_rho_graph(pre.graph, pre.radius, opts.k)) << name;
  }
}

TEST(GlobalOpt, RejectsBadParameters) {
  const Graph g = gen::chain(4);
  PreprocessOptions opts;
  opts.rho = 0;
  EXPECT_THROW(preprocess_global(g, opts), std::invalid_argument);
  opts.rho = 2;
  opts.k = 0;
  EXPECT_THROW(preprocess_global(g, opts), std::invalid_argument);
}

TEST(GlobalOpt, RejectsDirectedRing) {
  // merge_edges adds the shortcuts in both directions: over one-way arcs
  // that would shorten distances. The cover rule adds shortcuts whatever
  // the heuristic names, kNone included.
  const Graph ring = test::one_way_ring(10);
  PreprocessOptions opts;
  opts.rho = 4;
  opts.k = 2;
  for (const ShortcutHeuristic h :
       {ShortcutHeuristic::kDP, ShortcutHeuristic::kNone}) {
    opts.heuristic = h;
    EXPECT_THROW(preprocess_global(ring, opts), std::invalid_argument)
        << to_string(h);
  }
}

}  // namespace
}  // namespace rs
