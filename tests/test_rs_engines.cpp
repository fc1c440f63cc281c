// Cross-engine equivalence: the flat engine (practical) and the Algorithm
// 2 reference on the treap substrate (core/rs_bst.hpp) must agree on
// distances AND on the step sequence; on unit-weight graphs (§3.4) both
// must also equal BFS.
#include <gtest/gtest.h>

#include "baseline/bfs.hpp"
#include "baseline/dijkstra.hpp"
#include "core/radii.hpp"
#include "core/radius_stepping.hpp"
#include "core/rs_bst.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "shortcut/ball_search.hpp"
#include "shortcut/shortcut.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

class EngineEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, Vertex>> {};

TEST_P(EngineEquivalenceTest, FlatAndBstProduceIdenticalResultsAndSteps) {
  const auto [seed, rho] = GetParam();
  for (const auto& [name, g] : test::weighted_suite(seed)) {
    const auto radius = all_radii(g, rho);
    RunStats flat_stats, bst_stats;
    const auto flat = radius_stepping(g, 0, radius, &flat_stats);
    const auto bst = radius_stepping_bst(g, 0, radius, &bst_stats);
    EXPECT_EQ(flat, bst) << name << " rho=" << rho;
    EXPECT_EQ(flat_stats.steps, bst_stats.steps) << name << " rho=" << rho;
    EXPECT_EQ(flat_stats.settled, bst_stats.settled) << name;
    EXPECT_EQ(flat, dijkstra(g, 0)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndRhos, EngineEquivalenceTest,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 4, 16)));

TEST(EngineEquivalence, BstHandlesSpecialRadii) {
  for (const auto& [name, g] : test::weighted_suite(4)) {
    const Vertex n = g.num_vertices();
    EXPECT_EQ(radius_stepping_bst(g, 0, dijkstra_radii(n)),
              dijkstra(g, 0))
        << name << " r=0";
    RunStats stats;
    EXPECT_EQ(radius_stepping_bst(g, 0, bellman_ford_radii(n), &stats),
              dijkstra(g, 0))
        << name << " r=inf";
    EXPECT_EQ(stats.steps, 1u) << name;
  }
}

TEST(EngineEquivalence, BstRespectsSubstepBoundAfterPreprocessing) {
  for (const auto& [name, g] : test::weighted_suite(5)) {
    PreprocessOptions opts;
    opts.rho = 10;
    opts.k = 2;
    opts.heuristic = ShortcutHeuristic::kDP;
    const PreprocessResult pre = preprocess(g, opts);
    RunStats stats;
    const auto d = radius_stepping_bst(pre.graph, 0, pre.radius, &stats);
    EXPECT_LE(stats.max_substeps_in_step, opts.k + 2u) << name;
    EXPECT_EQ(d, dijkstra(g, 0)) << name;
  }
}

class UnitWeightTest
    : public ::testing::TestWithParam<std::tuple<int, Vertex>> {};

TEST_P(UnitWeightTest, FlatMatchesBstAndBfs) {
  // The §3.4 regime: hop distances, with the step sequence still driven
  // by the r_rho radii.
  const auto [seed, rho] = GetParam();
  for (const auto& [name, g] : test::unweighted_suite(seed)) {
    const auto radius = all_radii(g, rho);
    RunStats flat_stats, bst_stats;
    const auto flat = radius_stepping(g, 0, radius, &flat_stats);
    const auto bst = radius_stepping_bst(g, 0, radius, &bst_stats);
    EXPECT_EQ(flat, bst) << name << " rho=" << rho;
    EXPECT_EQ(flat_stats.steps, bst_stats.steps) << name << " rho=" << rho;
    EXPECT_EQ(flat, bfs(g, 0)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndRhos, UnitWeightTest,
                         ::testing::Combine(::testing::Values(1, 2),
                                            ::testing::Values(1, 4, 16)));

TEST(UnitWeight, RhoOneStepCountEqualsBfsRounds) {
  // rho = 1 -> r = 0 -> one step per BFS level: the Table 4/5 baseline row.
  for (const auto& [name, g] : test::unweighted_suite(3)) {
    RunStats stats;
    radius_stepping(g, 0, dijkstra_radii(g.num_vertices()), &stats);
    std::size_t bfs_rounds = 0;
    bfs(g, 0, &bfs_rounds);
    EXPECT_EQ(stats.steps, bfs_rounds) << name;
  }
}

TEST(EngineEquivalence, AllThreeOnUnitGridWithBallRadii) {
  // Flat engine, Algorithm 2 and BFS on the original unit-weight graph
  // with r_rho radii (shortcut edges would carry multi-hop weights).
  const Graph g = assign_unit_weights(gen::grid2d(15, 15));
  const auto radius = all_radii(g, 12);
  RunStats s_flat, s_bst;
  const auto d_flat = radius_stepping(g, 0, radius, &s_flat);
  const auto d_bst = radius_stepping_bst(g, 0, radius, &s_bst);
  EXPECT_EQ(d_flat, d_bst);
  EXPECT_EQ(d_flat, bfs(g, 0));
  EXPECT_EQ(s_flat.steps, s_bst.steps);
}

}  // namespace
}  // namespace rs
