// Directed-graph correctness. The paper's *bounds* are proved for
// undirected graphs (the ball/shortcut machinery needs symmetric
// distances), but Radius-Stepping itself — Dijkstra + Bellman-Ford substeps
// — is correct on directed graphs for ANY radii (Theorem 3.1's argument
// never uses symmetry). These tests pin that down so the engines stay
// usable as general SSSP routines.
#include <gtest/gtest.h>

#include "baseline/bellman_ford.hpp"
#include "baseline/delta_stepping.hpp"
#include "baseline/dijkstra.hpp"
#include "core/radii.hpp"
#include "core/radius_stepping.hpp"
#include "core/rs_bst.hpp"
#include "graph/builder.hpp"
#include "parallel/rng.hpp"

namespace rs {
namespace {

Graph random_directed(Vertex n, EdgeId m, std::uint64_t seed) {
  const SplitRng rng(seed);
  std::vector<EdgeTriple> edges;
  edges.reserve(m + n);
  // A directed cycle keeps every vertex reachable from every source.
  for (Vertex v = 0; v < n; ++v) {
    edges.push_back({v, static_cast<Vertex>((v + 1) % n),
                     static_cast<Weight>(1 + rng.bounded(0, v, 100))});
  }
  for (EdgeId i = 0; i < m; ++i) {
    const Vertex u = static_cast<Vertex>(rng.bounded(1, i, n));
    const Vertex v = static_cast<Vertex>(rng.bounded(2, i, n));
    if (u == v) continue;
    edges.push_back({u, v, static_cast<Weight>(1 + rng.bounded(3, i, 100))});
  }
  BuildOptions opts;
  opts.symmetrize = false;  // directed!
  return build_graph(n, std::move(edges), opts);
}

TEST(Directed, AsymmetricDistances) {
  // 0 -> 1 cheap, 1 -> 0 only around the cycle: d(0,1) != d(1,0).
  BuildOptions opts;
  opts.symmetrize = false;
  const Graph g =
      build_graph(3, {{0, 1, 1}, {1, 2, 1}, {2, 0, 1}}, opts);
  const auto d0 = dijkstra(g, 0);
  const auto d1 = dijkstra(g, 1);
  EXPECT_EQ(d0[1], 1u);
  EXPECT_EQ(d1[0], 2u);
}

class DirectedTest : public ::testing::TestWithParam<int> {};

TEST_P(DirectedTest, AllEnginesHandleDirectedGraphs) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Graph g = random_directed(300, 900, seed);
  const SplitRng rng(seed + 77);
  const Vertex src = static_cast<Vertex>(rng.bounded(0, 0, g.num_vertices()));
  const auto ref = dijkstra(g, src);

  EXPECT_EQ(bellman_ford(g, src), ref);
  EXPECT_EQ(bellman_ford_parallel(g, src), ref);
  EXPECT_EQ(delta_stepping(g, src), ref);
  // Radius-Stepping with assorted radii (correct for any r on directed
  // inputs; the bounded-step guarantees need undirected preprocessing).
  const Vertex n = g.num_vertices();
  EXPECT_EQ(radius_stepping(g, src, dijkstra_radii(n)), ref);
  EXPECT_EQ(radius_stepping(g, src, constant_radii(n, 25)), ref);
  EXPECT_EQ(radius_stepping(g, src, bellman_ford_radii(n)), ref);
  EXPECT_EQ(radius_stepping_bst(g, src, constant_radii(n, 25)), ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectedTest, ::testing::Range(0, 6));

TEST(Directed, UnreachableUnderDirectionality) {
  BuildOptions opts;
  opts.symmetrize = false;
  const Graph g = build_graph(3, {{0, 1, 5}}, opts);
  const auto d = radius_stepping(g, 1, constant_radii(3, 10));
  EXPECT_EQ(d[1], 0u);
  EXPECT_EQ(d[0], kInfDist);  // arc points the other way
  EXPECT_EQ(d[2], kInfDist);
}

}  // namespace
}  // namespace rs
