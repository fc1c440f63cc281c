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
#include "parallel/primitives.hpp"
#include "parallel/rng.hpp"
#include "shortcut/ball_search.hpp"
#include "shortcut/shortcut.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

/// Team sizes every flat-engine check below runs at: one worker (the step
/// routine on the calling thread), even and odd teams, and an
/// oversubscribed one.
constexpr int kTeams[] = {1, 2, 3, 8};

/// Runs the flat engine from `source` at every size in kTeams, on one
/// context reused across them, and checks distances, steps and settled
/// counts against Algorithm 2 (radius_stepping_bst) and Dijkstra.
void expect_flat_matches_bst(const Graph& g, Vertex source,
                             const std::vector<Dist>& radius,
                             const std::string& what) {
  RunStats bst_stats;
  const auto bst = radius_stepping_bst(g, source, radius, &bst_stats);
  ASSERT_EQ(bst, dijkstra(g, source)) << what;
  const test::WorkerGuard guard;
  QueryContext ctx;
  std::vector<Dist> flat;
  for (const int team : kTeams) {
    set_num_workers(team);
    RunStats stats;
    radius_stepping(g, source, radius, ctx, flat, &stats);
    EXPECT_EQ(flat, bst) << what << " workers=" << team;
    EXPECT_EQ(stats.steps, bst_stats.steps) << what << " workers=" << team;
    EXPECT_EQ(stats.settled, bst_stats.settled)
        << what << " workers=" << team;
  }
}

class EngineEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, Vertex>> {};

TEST_P(EngineEquivalenceTest, FlatAndBstProduceIdenticalResultsAndSteps) {
  const auto [seed, rho] = GetParam();
  for (const auto& [name, g] : test::weighted_suite(seed)) {
    expect_flat_matches_bst(g, 0, all_radii(g, rho),
                            name + " rho=" + std::to_string(rho));
  }
}

// The frontier is bucketed by distance (core/radius_stepping.cpp): a
// vertex is filed again whenever a relaxation moves it to a lower bucket,
// and only its entry in the bucket of its current distance is live. Here
// 150 vertices x_c are first reached over heavy arcs of a hub (the
// source), then lowered across dozens of buckets at a time, step after
// step, by the vertices of 150 light chains. Chain vertices have radius 8,
// so the bucket width is 4 and the steps are narrow; the x_c have radius
// 600, so once the chains are settled one wide step gathers every x_c,
// and it reads buckets that still hold their stale entries. The seed's
// hub arcs land far beyond the bucket ring. Each x_c leads on to a y_c,
// which only a settled x_c can reach.
TEST(EngineEquivalence, HubReachedVertexLoweredAcrossBuckets) {
  constexpr Vertex kChains = 150;
  constexpr Vertex kLength = 20;
  const Vertex chain_base = 1;
  const Vertex x_base = chain_base + kChains * kLength;
  const Vertex y_base = x_base + kChains;
  const Vertex n = y_base + kChains;
  const auto chain = [&](Vertex c, Vertex i) {
    return chain_base + c * kLength + (i - 1);
  };
  std::vector<EdgeTriple> edges;
  for (Vertex c = 0; c < kChains; ++c) {
    edges.push_back({0, chain(c, 1), 3});
    for (Vertex i = 1; i < kLength; ++i) {
      edges.push_back({chain(c, i), chain(c, i + 1), 3});
    }
    edges.push_back({0, x_base + c, 5000});
    for (Vertex i = 1; i <= kLength; ++i) {
      const auto w = static_cast<Weight>(5000 - 200 * i + c % 7);
      edges.push_back({chain(c, i), x_base + c, w});
      edges.push_back({chain((c + 1) % kChains, i), x_base + c, w + 1});
    }
    edges.push_back({x_base + c, y_base + c, 1});
  }
  const Graph g = build_graph(n, std::move(edges));
  std::vector<Dist> radius(n, 8);
  for (Vertex v = x_base; v < n; ++v) radius[v] = 600;
  expect_flat_matches_bst(g, 0, radius, "hub");
}

// Distances spanning many times the bucket ring, with gaps wider than it:
// filings overflow the ring, the ring jumps, and overflow entries move in
// once the ring reaches them.
TEST(EngineEquivalence, DistanceRangeManyTimesTheBucketRing) {
  const Graph grid = assign_uniform_weights(gen::grid2d(12, 14), 41, 1,
                                            1'000'000);
  std::vector<EdgeTriple> edges;
  for (Vertex v = 0; v + 1 < 40; ++v) {
    edges.push_back({v, v + 1, static_cast<Weight>(Weight{1} << (v % 31))});
  }
  for (Vertex v = 1; v < 40; v += 3) edges.push_back({0, v, 7});
  const Graph geometric = build_graph(40, std::move(edges));
  for (const auto& [name, g] :
       {std::pair<std::string, const Graph&>{"grid", grid},
        std::pair<std::string, const Graph&>{"geometric", geometric}}) {
    const Vertex n = g.num_vertices();
    std::vector<Dist> mixed(n, 2);
    for (Vertex v = 0; v < n; v += 4) mixed[v] = 500'000;
    for (const Vertex source : {Vertex{0}, n / 2}) {
      const std::string where = name + " src=" + std::to_string(source);
      expect_flat_matches_bst(g, source, dijkstra_radii(n), where + " r=0");
      expect_flat_matches_bst(g, source, constant_radii(n, 3), where + " r=3");
      expect_flat_matches_bst(g, source, mixed, where + " mixed");
      expect_flat_matches_bst(g, source, all_radii(g, 8), where + " rho=8");
    }
  }
}

// Zero-weight arcs give many vertices equal distances, in one bucket and
// in one distance class, and let a vertex filed beyond d_i be lowered to
// the distance of the vertex that reached it.
TEST(EngineEquivalence, ZeroWeightArcsWithEqualDistances) {
  const SplitRng rng(314);
  for (int trial = 0; trial < 3; ++trial) {
    const Vertex side = 16;
    const Vertex n = side * side;
    std::vector<EdgeTriple> edges;
    const auto weight = [&](std::uint64_t i) {
      constexpr Weight kChoices[] = {0, 0, 0, 1, 4, 9};
      return kChoices[rng.bounded(static_cast<std::uint64_t>(trial), i, 6)];
    };
    for (Vertex r = 0; r < side; ++r) {
      for (Vertex c = 0; c < side; ++c) {
        const Vertex v = r * side + c;
        if (c + 1 < side) edges.push_back({v, v + 1, weight(2 * v)});
        if (r + 1 < side) edges.push_back({v, v + side, weight(2 * v + 1)});
      }
    }
    const Graph g = build_graph(n, std::move(edges));
    const std::string where = "trial=" + std::to_string(trial);
    expect_flat_matches_bst(g, 0, dijkstra_radii(n), where + " r=0");
    expect_flat_matches_bst(g, 0, constant_radii(n, 2), where + " r=2");
    expect_flat_matches_bst(g, n / 2, all_radii(g, 6), where + " rho=6");
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
