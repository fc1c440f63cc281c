#include <gtest/gtest.h>

#include "baseline/bellman_ford.hpp"
#include "baseline/bfs.hpp"
#include "baseline/delta_stepping.hpp"
#include "baseline/dijkstra.hpp"
#include "graph/builder.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

TEST(Dijkstra, TinyHandComputedGraph) {
  //    0 --5-- 1
  //    |       |
  //    9       1
  //    |       |
  //    2 --2-- 3
  const Graph g = build_graph(4, {{0, 1, 5}, {0, 2, 9}, {1, 3, 1}, {2, 3, 2}});
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[1], 5u);
  EXPECT_EQ(d[2], 8u);  // 0-1-3-2 beats the direct 9
  EXPECT_EQ(d[3], 6u);
}

TEST(Dijkstra, UnreachableVerticesStayInfinite) {
  const Graph g = build_graph(4, {{0, 1, 3}});
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d[2], kInfDist);
  EXPECT_EQ(d[3], kInfDist);
}

TEST(Dijkstra, ZeroWeightEdgesHandled) {
  BuildOptions opts;
  const Graph g = build_graph(3, {{0, 1, 0}, {1, 2, 4}}, opts);
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d[1], 0u);
  EXPECT_EQ(d[2], 4u);
}

class BaselineAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BaselineAgreementTest, AllAlgorithmsAgreeWithDijkstra) {
  const auto [suite_seed, source_pick] = GetParam();
  for (const auto& [name, g] : test::weighted_suite(suite_seed)) {
    const Vertex n = g.num_vertices();
    const Vertex src = static_cast<Vertex>(
        (static_cast<std::uint64_t>(source_pick) * 7919) % n);
    const auto ref = dijkstra(g, src);

    EXPECT_EQ(bellman_ford(g, src), ref) << name << " bellman-ford";
    EXPECT_EQ(bellman_ford_parallel(g, src), ref) << name << " bf-parallel";
    EXPECT_EQ(delta_stepping(g, src), ref) << name << " delta default";
    EXPECT_EQ(delta_stepping(g, src, 1), ref) << name << " delta=1";
    EXPECT_EQ(delta_stepping(g, src, 50), ref) << name << " delta=50";
    EXPECT_EQ(delta_stepping(g, src, 100000), ref) << name << " delta=inf-ish";
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndSources, BaselineAgreementTest,
                         ::testing::Combine(::testing::Range(1, 4),
                                            ::testing::Range(0, 3)));

TEST(BellmanFord, RoundCountBoundedByHopDiameter) {
  const Graph g = assign_unit_weights(gen::chain(50));
  std::size_t rounds = 0;
  bellman_ford_parallel(g, 0, &rounds);
  // Distances propagate one hop per round; chain needs exactly 49 + a final
  // no-op round bounded by 50.
  EXPECT_GE(rounds, 49u);
  EXPECT_LE(rounds, 51u);
}

TEST(DeltaStepping, StatsAreConsistent) {
  const Graph g = assign_uniform_weights(gen::grid2d(20, 20), 3, 1, 100);
  DeltaSteppingStats stats;
  const auto d = delta_stepping(g, 0, 25, &stats);
  EXPECT_EQ(d, dijkstra(g, 0));
  EXPECT_GT(stats.buckets_processed, 0u);
  EXPECT_GE(stats.phases, stats.buckets_processed);
  EXPECT_GT(stats.relaxations, 0u);
}

TEST(DeltaStepping, LargeDeltaDegeneratesToFewBuckets) {
  const Graph g = assign_uniform_weights(gen::grid2d(12, 12), 5, 1, 10);
  DeltaSteppingStats one_bucket;
  delta_stepping(g, 0, 1'000'000, &one_bucket);
  EXPECT_EQ(one_bucket.buckets_processed, 1u);

  DeltaSteppingStats many;
  delta_stepping(g, 0, 1, &many);
  EXPECT_GT(many.buckets_processed, one_bucket.buckets_processed);
}

class BfsTest : public ::testing::TestWithParam<int> {};

TEST_P(BfsTest, MatchesUnitDijkstra) {
  for (const auto& [name, g] : test::unweighted_suite(GetParam())) {
    std::size_t rounds = 0;
    EXPECT_EQ(bfs(g, 0, &rounds), dijkstra(g, 0)) << name;
    EXPECT_EQ(rounds, bfs_eccentricity(g, 0)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsTest, ::testing::Range(1, 4));

TEST(MinHopTree, ParentEdgesRealizeDistances) {
  for (const auto& [name, g] : test::weighted_suite(2)) {
    const ShortestPathTreeResult t = dijkstra_min_hop_tree(g, 0);
    EXPECT_EQ(t.dist, dijkstra(g, 0)) << name;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (v == 0 || t.dist[v] == kInfDist) continue;
      const Vertex p = t.parent[v];
      ASSERT_NE(p, kNoVertex) << name;
      // The parent edge must exist and close the distance exactly.
      bool ok = false;
      for (EdgeId e = g.first_arc(p); e < g.last_arc(p); ++e) {
        if (g.arc_target(e) == v && t.dist[p] + g.arc_weight(e) == t.dist[v]) {
          ok = true;
        }
      }
      EXPECT_TRUE(ok) << name << " vertex " << v;
      EXPECT_EQ(t.hops[v], t.hops[p] + 1) << name;
    }
  }
}

TEST(MinHopTree, HopsAreMinimalAmongShortestPaths) {
  for (const auto& [name, g] : test::weighted_suite(3)) {
    const ShortestPathTreeResult t = dijkstra_min_hop_tree(g, 0);
    // DP check: hops[v] == 1 + min over predecessors p on *some* shortest
    // path (dist[p] + w == dist[v]) of hops[p].
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (v == 0 || t.dist[v] == kInfDist) continue;
      Vertex best = kNoVertex;
      for (EdgeId e = g.first_arc(v); e < g.last_arc(v); ++e) {
        const Vertex p = g.arc_target(e);
        if (t.dist[p] != kInfDist &&
            t.dist[p] + g.arc_weight(e) == t.dist[v]) {
          best = std::min(best, static_cast<Vertex>(t.hops[p] + 1));
        }
      }
      EXPECT_EQ(t.hops[v], best) << name << " vertex " << v;
    }
  }
}

TEST(CountDistinctDistances, IgnoresZeroAndInfinity) {
  EXPECT_EQ(count_distinct_distances({0, 5, 5, 7, kInfDist}), 2u);
  EXPECT_EQ(count_distinct_distances({0}), 0u);
  EXPECT_EQ(count_distinct_distances({}), 0u);
}

}  // namespace
}  // namespace rs
