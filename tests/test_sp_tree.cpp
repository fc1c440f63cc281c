#include "core/sp_tree.hpp"

#include <gtest/gtest.h>

#include "baseline/dijkstra.hpp"
#include "core/radius_stepping.hpp"
#include "graph/builder.hpp"
#include "shortcut/ball_search.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

TEST(ParentsFromDistances, HandComputed) {
  const Graph g = build_graph(4, {{0, 1, 5}, {0, 2, 9}, {1, 3, 1}, {2, 3, 2}});
  const auto dist = dijkstra(g, 0);
  const auto parent = parents_from_distances(g, 0, dist);
  EXPECT_EQ(parent[0], kNoVertex);
  EXPECT_EQ(parent[1], 0u);
  EXPECT_EQ(parent[3], 1u);
  EXPECT_EQ(parent[2], 3u);  // 0-1-3-2 is shorter than 0-2
  EXPECT_TRUE(validate_shortest_path_tree(g, 0, dist, parent));
}

class SpTreeTest : public ::testing::TestWithParam<int> {};

TEST_P(SpTreeTest, ParentsValidForEverySuiteGraph) {
  for (const auto& [name, g] : test::weighted_suite(GetParam())) {
    const auto dist = radius_stepping(g, 0, all_radii(g, 8));
    const auto parent = parents_from_distances(g, 0, dist);
    EXPECT_TRUE(validate_shortest_path_tree(g, 0, dist, parent)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpTreeTest, ::testing::Range(1, 4));

TEST(ParentsFromDistances, DirectedChainUsesIncomingArcs) {
  // 0 -> 1 -> 2 -> 3 with NO reverse arcs: v's predecessor is only visible
  // through v's incoming arcs. The pre-fix implementation walked v's
  // outgoing arcs (valid only on symmetric graphs) and returned no parents
  // at all here.
  BuildOptions directed;
  directed.symmetrize = false;
  const Graph g =
      build_graph(4, {{0, 1, 2}, {1, 2, 3}, {2, 3, 4}}, directed);
  const auto dist = dijkstra(g, 0);
  const auto parent = parents_from_distances(g, 0, dist);
  EXPECT_EQ(parent[0], kNoVertex);
  EXPECT_EQ(parent[1], 0u);
  EXPECT_EQ(parent[2], 1u);
  EXPECT_EQ(parent[3], 2u);
  EXPECT_TRUE(validate_shortest_path_tree(g, 0, dist, parent));
  EXPECT_EQ(extract_path(parent, 3), (std::vector<Vertex>{0, 1, 2, 3}));
}

TEST(ParentsFromDistances, DirectedCycleAndAdversarialSuite) {
  // Directed cycle: the only route from 0 to v is 0 -> 1 -> ... -> v, and
  // every arc is one-way.
  BuildOptions directed;
  directed.symmetrize = false;
  const Vertex n = 30;
  std::vector<EdgeTriple> edges;
  for (Vertex v = 0; v < n; ++v) {
    edges.push_back({v, static_cast<Vertex>((v + 1) % n),
                     static_cast<Weight>(1 + (v % 5))});
  }
  const Graph cycle = build_graph(n, std::move(edges), directed);
  const auto dist = dijkstra(cycle, 0);
  const auto parent = parents_from_distances(cycle, 0, dist);
  EXPECT_TRUE(validate_shortest_path_tree(cycle, 0, dist, parent));
  for (Vertex v = 1; v < n; ++v) EXPECT_EQ(parent[v], v - 1) << v;

  // And every graph in the adversarial palette (directed arcs, self-loops,
  // parallel arcs) must yield a validating tree.
  for (const auto& [name, g] : test::adversarial_suite(3)) {
    const auto d = dijkstra(g, 0);
    const auto p = parents_from_distances(g, 0, d);
    EXPECT_TRUE(validate_shortest_path_tree(g, 0, d, p)) << name;
  }
}

TEST(ParentsFromDistances, PrebuiltTransposeMatchesAndValidates) {
  for (const auto& [name, g] : test::weighted_suite(9)) {
    const auto dist = dijkstra(g, 0);
    const Graph tg = g.transposed();
    EXPECT_EQ(parents_from_distances(g, tg, 0, dist),
              parents_from_distances(g, 0, dist))
        << name;
  }
  const Graph g = build_graph(3, {{0, 1, 1}, {1, 2, 1}});
  EXPECT_THROW(
      parents_from_distances(g, build_graph(2, {{0, 1, 1}}), 0,
                             dijkstra(g, 0)),
      std::invalid_argument);
}

TEST(ParentsFromDistances, UnreachableGetNoParent) {
  const Graph g = build_graph(4, {{0, 1, 3}});
  const auto dist = dijkstra(g, 0);
  const auto parent = parents_from_distances(g, 0, dist);
  EXPECT_EQ(parent[2], kNoVertex);
  EXPECT_EQ(parent[3], kNoVertex);
  EXPECT_TRUE(validate_shortest_path_tree(g, 0, dist, parent));
}

TEST(ParentsFromDistances, DeterministicTieBreak) {
  // Two equal-length routes to vertex 3 via 1 and 2: parent must be the
  // smaller id (1).
  const Graph g = build_graph(4, {{0, 1, 5}, {0, 2, 5}, {1, 3, 5}, {2, 3, 5}});
  const auto parent = parents_from_distances(g, 0, dijkstra(g, 0));
  EXPECT_EQ(parent[3], 1u);
}

TEST(ParentsFromDistances, RejectsSizeMismatch) {
  const Graph g = build_graph(3, {{0, 1, 1}});
  EXPECT_THROW(parents_from_distances(g, 0, std::vector<Dist>(2, 0)),
               std::invalid_argument);
}

TEST(ParentsFromDistances, RejectsASourceNotAtDistanceZero) {
  const Graph g = build_graph(3, {{0, 1, 1}, {1, 2, 1}});
  EXPECT_THROW(parents_from_distances(g, 1, dijkstra(g, 0)),
               std::invalid_argument);
  EXPECT_THROW(parents_from_distances(g, 3, dijkstra(g, 0)),
               std::invalid_argument);
}

TEST(ExtractPath, WalksToSource) {
  const Graph g = build_graph(4, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}});
  const auto parent = parents_from_distances(g, 0, dijkstra(g, 0));
  EXPECT_EQ(extract_path(parent, 3), (std::vector<Vertex>{0, 1, 2, 3}));
  EXPECT_EQ(extract_path(parent, 0), (std::vector<Vertex>{0}));
}

TEST(ExtractPath, DetectsCycles) {
  std::vector<Vertex> parent{1, 0};  // malformed: 0 <-> 1
  EXPECT_THROW(extract_path(parent, 0), std::logic_error);
}

/// extract_path_by_closure from `source` to `target` over `g`'s
/// transpose, reading Dijkstra's distances from `source`.
std::vector<Vertex> closure_path(const Graph& g, Vertex source,
                                 Vertex target) {
  const std::vector<Dist> dist = dijkstra(g, source);
  const auto dist_of = [&dist](Vertex v) { return dist[v]; };
  std::vector<Vertex> path;
  extract_path_by_closure(g.transposed(), source, target, dist_of, path);
  return path;
}

TEST(ClosureWalk, WalksToTheSourceAcrossAZeroWeightArc) {
  // Vertex 1 sits at distance 0 beside the source: a walk that stopped at
  // the first vertex of distance 0 lost the source.
  const Graph g = build_graph(3, {{0, 1, 0}, {1, 2, 5}});
  EXPECT_EQ(closure_path(g, 0, 2), (std::vector<Vertex>{0, 1, 2}));
  EXPECT_EQ(closure_path(g, 0, 1), (std::vector<Vertex>{0, 1}));
  EXPECT_EQ(closure_path(g, 1, 0), (std::vector<Vertex>{1, 0}));
  EXPECT_EQ(closure_path(g, 2, 0), (std::vector<Vertex>{2, 1, 0}));
  EXPECT_EQ(closure_path(g, 0, 0), (std::vector<Vertex>{0}));
}

TEST(ClosureWalk, CrossesZeroWeightPocketsWithoutCycling) {
  // 2, 1 and 3 share distance 1 from 0 over zero-weight arcs, and only 3
  // has a closer predecessor. The smallest-id choice at 2 is 1, which
  // used to lead back to 2 ("predecessor cycle"); without the arc 1-3, 1
  // is a dead end that only a search of the pocket gets round.
  const Graph pocket =
      build_graph(5, {{0, 3, 1}, {3, 2, 0}, {2, 1, 0}, {1, 3, 0}, {2, 4, 5}});
  EXPECT_EQ(closure_path(pocket, 0, 4), (std::vector<Vertex>{0, 3, 2, 4}));
  EXPECT_EQ(closure_path(pocket, 0, 1), (std::vector<Vertex>{0, 3, 1}));
  const Graph dead_end =
      build_graph(5, {{0, 3, 1}, {3, 2, 0}, {2, 1, 0}, {2, 4, 5}});
  EXPECT_EQ(closure_path(dead_end, 0, 4), (std::vector<Vertex>{0, 3, 2, 4}));
  EXPECT_EQ(closure_path(dead_end, 0, 1), (std::vector<Vertex>{0, 3, 2, 1}));
  EXPECT_EQ(closure_path(dead_end, 4, 0), (std::vector<Vertex>{4, 2, 3, 0}));
}

TEST(ClosureWalk, ThrowsWhenNoExactPredecessorLeadsToTheRoot) {
  // Distances that no arc closes: the walk refuses instead of stopping
  // short or looping.
  const Graph tg = build_graph(3, {{0, 1, 0}, {1, 2, 5}}).transposed();
  const std::vector<Dist> wrong = {0, 1, 6};
  const auto dist_of = [&wrong](Vertex v) { return wrong[v]; };
  std::vector<Vertex> path;
  EXPECT_THROW(extract_path_by_closure(tg, 0, 2, dist_of, path),
               std::logic_error);
}

TEST(ParentsFromDistances, ZeroWeightArcAtTheSource) {
  // Vertex 1 sits at distance 0 beside the source: it needs a parent too,
  // or the path to 2 loses the source.
  const Graph g = build_graph(3, {{0, 1, 0}, {1, 2, 5}});
  const std::vector<Dist> dist = dijkstra(g, 0);
  const auto parent = parents_from_distances(g, 0, dist);
  EXPECT_EQ(parent, (std::vector<Vertex>{kNoVertex, 0, 1}));
  EXPECT_TRUE(validate_shortest_path_tree(g, 0, dist, parent));
  EXPECT_EQ(extract_path(parent, 2), (std::vector<Vertex>{0, 1, 2}));
  EXPECT_EQ(extract_path(parent, 1), (std::vector<Vertex>{0, 1}));

  const std::vector<Dist> from2 = dijkstra(g, 2);
  const auto parent2 = parents_from_distances(g, 2, from2);
  EXPECT_TRUE(validate_shortest_path_tree(g, 2, from2, parent2));
  EXPECT_EQ(extract_path(parent2, 0), (std::vector<Vertex>{2, 1, 0}));
}

TEST(ParentsFromDistances, ZeroWeightPocketFormsATree) {
  // 2, 1 and 3 share distance 1 from 0 over zero-weight arcs, and only 3
  // has a closer predecessor; smallest-id parents would make 1 and 2
  // each other's. From every source: a valid tree whose paths run from
  // the source and weigh the distance, and from 0 the closure walk's.
  const Graph pocket =
      build_graph(5, {{0, 3, 1}, {3, 2, 0}, {2, 1, 0}, {1, 3, 0}, {2, 4, 5}});
  for (Vertex s = 0; s < pocket.num_vertices(); ++s) {
    const std::vector<Dist> dist = dijkstra(pocket, s);
    const auto parent = parents_from_distances(pocket, s, dist);
    ASSERT_TRUE(validate_shortest_path_tree(pocket, s, dist, parent)) << s;
    for (Vertex t = 0; t < pocket.num_vertices(); ++t) {
      const std::vector<Vertex> path = extract_path(parent, t);
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.front(), s) << s << " -> " << t;
      EXPECT_EQ(test::path_weight(pocket, path), dist[t]) << s << " -> " << t;
      if (s == 0) {
        EXPECT_EQ(path, closure_path(pocket, 0, t)) << t;
      }
    }
  }
}

TEST(ValidateTree, RefusesAZeroDistanceVertexWithoutAParent) {
  const Graph g = build_graph(3, {{0, 1, 0}, {1, 2, 5}});
  const std::vector<Vertex> parent{kNoVertex, kNoVertex, 1};
  EXPECT_FALSE(validate_shortest_path_tree(g, 0, dijkstra(g, 0), parent));
}

TEST(ValidateTree, RefusesAParentCycle) {
  // Every parent arc closes its distance exactly, but 1 and 2 name each
  // other over zero-weight arcs and never reach the source.
  const Graph pocket =
      build_graph(5, {{0, 3, 1}, {3, 2, 0}, {2, 1, 0}, {1, 3, 0}, {2, 4, 5}});
  const std::vector<Vertex> parent{kNoVertex, 2, 1, 0, 2};
  EXPECT_FALSE(
      validate_shortest_path_tree(pocket, 0, dijkstra(pocket, 0), parent));
}

TEST(ValidateTree, RejectsWrongParent) {
  const Graph g = build_graph(3, {{0, 1, 1}, {1, 2, 1}});
  const auto dist = dijkstra(g, 0);
  std::vector<Vertex> parent{kNoVertex, 0, 0};  // 2's parent should be 1
  EXPECT_FALSE(validate_shortest_path_tree(g, 0, dist, parent));
}

TEST(PathCost, MatchesReportedDistance) {
  for (const auto& [name, g] : test::weighted_suite(5)) {
    const auto dist = dijkstra(g, 0);
    const auto parent = parents_from_distances(g, 0, dist);
    const Vertex target = g.num_vertices() - 1;
    if (dist[target] == kInfDist) continue;
    const auto path = extract_path(parent, target);
    ASSERT_GE(path.size(), 1u) << name;
    EXPECT_EQ(path.front(), 0u) << name;
    EXPECT_EQ(path.back(), target) << name;
    Dist total = 0;
    for (std::size_t i = 1; i < path.size(); ++i) {
      const Vertex u = path[i - 1];
      const Vertex v = path[i];
      Weight w = 0;
      bool found = false;
      for (EdgeId e = g.first_arc(u); e < g.last_arc(u); ++e) {
        if (g.arc_target(e) == v) {
          w = g.arc_weight(e);
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found) << name;
      total += w;
    }
    EXPECT_EQ(total, dist[target]) << name;
  }
}

}  // namespace
}  // namespace rs
