#include "shortcut/ball_search.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "baseline/dijkstra.hpp"
#include "graph/generators.hpp"
#include "pq/binary_heap.hpp"
#include "shortcut/kradius.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

/// The rho-th smallest distance (counting the source's 0 as the first).
Dist rho_th_distance(const std::vector<Dist>& dist, Vertex rho) {
  std::vector<Dist> finite;
  for (const Dist d : dist) {
    if (d != kInfDist) finite.push_back(d);
  }
  std::sort(finite.begin(), finite.end());
  if (finite.size() < rho) return finite.back();
  return finite[rho - 1];
}

class BallRadiusTest
    : public ::testing::TestWithParam<std::tuple<int, Vertex>> {};

TEST_P(BallRadiusTest, RadiusMatchesFullDijkstra) {
  const auto [seed, rho] = GetParam();
  for (const auto& [name, g] : test::weighted_suite(seed)) {
    const Graph gw = g.with_weight_sorted_adjacency();
    const Vertex src = g.num_vertices() / 3;
    const auto full = dijkstra(g, src);
    const Ball ball = ball_search(gw, src, rho);
    EXPECT_EQ(ball.radius, rho_th_distance(full, rho))
        << name << " rho=" << rho;

    // Every ball member's distance is exact.
    for (const BallVertex& bv : ball.vertices) {
      EXPECT_EQ(bv.dist, full[bv.v]) << name << " member " << bv.v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndRhos, BallRadiusTest,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::Values(1, 2, 5, 16, 64)));

TEST(BallSearch, SourceIsFirstWithZeroDistance) {
  const Graph g =
      test::weighted_suite(1)[0].graph.with_weight_sorted_adjacency();
  const Ball ball = ball_search(g, 7, 10);
  ASSERT_FALSE(ball.vertices.empty());
  EXPECT_EQ(ball.vertices[0].v, 7u);
  EXPECT_EQ(ball.vertices[0].dist, 0u);
  EXPECT_EQ(ball.vertices[0].hops, 0u);
  EXPECT_EQ(ball.vertices[0].parent, kNoVertex);
}

TEST(BallSearch, SettleOrderIsNondecreasing) {
  const Graph g =
      test::weighted_suite(2)[2].graph.with_weight_sorted_adjacency();
  const Ball ball = ball_search(g, 0, 32);
  for (std::size_t i = 1; i < ball.vertices.size(); ++i) {
    EXPECT_LE(ball.vertices[i - 1].dist, ball.vertices[i].dist);
  }
}

TEST(BallSearch, SettleTiesIncludesWholeDistanceClass) {
  // Unit-weight star from a leaf: all other leaves tie at distance 2. With
  // an unrestricted edge limit the whole class settles; the default
  // lightest-rho-edges restriction (Lemma 4.2) only guarantees the rho
  // nearest, so it truncates the tie class.
  const Graph g = gen::star(50).with_weight_sorted_adjacency();
  const Ball full = ball_search(g, 1, 3, /*edge_limit=*/50);
  EXPECT_EQ(full.radius, 2u);
  EXPECT_EQ(full.vertices.size(), 50u);  // source + hub + all 48 tied leaves

  const Ball restricted = ball_search(g, 1, 3);
  EXPECT_EQ(restricted.radius, 2u);
  EXPECT_EQ(restricted.vertices.size(), 4u);  // source + hub + 2 leaves
}

TEST(BallSearch, ExactRhoModeStopsAtRho) {
  const Graph g = gen::star(50).with_weight_sorted_adjacency();
  BallSearchWorkspace ws(g.num_vertices());
  const Ball ball = ws.run(g, 1, BallOptions{3, 0, /*settle_ties=*/false});
  EXPECT_EQ(ball.radius, 2u);       // identical radius
  EXPECT_EQ(ball.vertices.size(), 3u);  // but only rho members
}

TEST(BallSearch, RhoOneIsJustTheSource) {
  const Graph g =
      test::weighted_suite(1)[0].graph.with_weight_sorted_adjacency();
  const Ball ball = ball_search(g, 4, 1);
  EXPECT_EQ(ball.radius, 0u);
  EXPECT_EQ(ball.vertices.size(), 1u);
}

TEST(BallSearch, ParentsFormInBallTreeWithCorrectHops) {
  for (const auto& [name, g0] : test::weighted_suite(4)) {
    const Graph g = g0.with_weight_sorted_adjacency();
    const Ball ball = ball_search(g, 0, 24);
    // Map each member to its position; parents must settle earlier.
    std::vector<std::int64_t> pos(g.num_vertices(), -1);
    for (std::size_t i = 0; i < ball.vertices.size(); ++i) {
      pos[ball.vertices[i].v] = static_cast<std::int64_t>(i);
    }
    for (std::size_t i = 1; i < ball.vertices.size(); ++i) {
      const BallVertex& bv = ball.vertices[i];
      ASSERT_NE(bv.parent, kNoVertex) << name;
      const std::int64_t pp = pos[bv.parent];
      ASSERT_GE(pp, 0) << name;
      ASSERT_LT(pp, static_cast<std::int64_t>(i)) << name;
      EXPECT_EQ(bv.hops,
                ball.vertices[static_cast<std::size_t>(pp)].hops + 1)
          << name;
    }
  }
}

TEST(BallSearch, EdgeRestrictionPreservesRadiiOnDistinctWeights) {
  // Lemma 4.2's lightest-rho-edges restriction: with all-distinct weights
  // the rho-nearest set (and hence the radius) is unaffected.
  for (const auto& [name, g0] : test::weighted_suite(5)) {
    // Make weights effectively distinct by re-rolling into a huge range.
    const Graph g = assign_uniform_weights(g0, 77, 1, 1'000'000)
                        .with_weight_sorted_adjacency();
    BallSearchWorkspace ws(g.num_vertices());
    for (const Vertex rho : {Vertex{4}, Vertex{16}}) {
      const Ball restricted = ws.run(g, 1, rho);
      const Ball unrestricted =
          ws.run(g, 1, BallOptions{rho, static_cast<Vertex>(g.num_vertices()),
                                   true});
      EXPECT_EQ(restricted.radius, unrestricted.radius)
          << name << " rho=" << rho;
      EXPECT_EQ(restricted.vertices.size(), unrestricted.vertices.size())
          << name << " rho=" << rho;
    }
  }
}

TEST(BallSearch, SmallComponentExhaustsGracefully) {
  // rho larger than the component: ball = whole component.
  const Graph g = gen::chain(5).with_weight_sorted_adjacency();
  const Ball ball = ball_search(g, 2, 100, 100);
  EXPECT_EQ(ball.vertices.size(), 5u);
  EXPECT_EQ(ball.radius, 2u);  // farthest settled
}

TEST(BallSearch, RejectsRhoZero)  {
  const Graph g = gen::chain(5);
  EXPECT_THROW(ball_search(g, 0, 0), std::invalid_argument);
}

TEST(BallSearch, Figure2WorstCaseScansQuadraticEdges) {
  // Paper Figure 2: reaching rho > 3d vertices forces Theta(d^2) arc scans.
  const Vertex d = 24;
  const Graph g = gen::bipartite_chain(8, d).with_weight_sorted_adjacency();
  const Vertex rho = 3 * d + 1;
  const Ball ball = ball_search(g, d /*interior group member*/, rho,
                                /*edge_limit=*/rho);
  EXPECT_GE(ball.vertices.size(), rho);
  // Members of three groups each scan ~d arcs -> at least d^2 scans.
  EXPECT_GE(ball.arcs_scanned, static_cast<EdgeId>(d) * d);
}

/// The unbounded ball search, kept as the reference for the bounded one:
/// the same (dist, hops, vertex) key and loop, but every arc within the
/// edge limit is relaxed.
Ball reference_ball(const Graph& g, Vertex source, const BallOptions& opts) {
  struct Key {
    Dist d;
    Vertex h;
    Vertex v;
    bool operator<(const Key& o) const {
      if (d != o.d) return d < o.d;
      return h != o.h ? h < o.h : v < o.v;
    }
    bool operator<=(const Key& o) const { return !(o < *this); }
    bool operator>=(const Key& o) const { return !(*this < o); }
  };
  const Vertex rho = opts.rho;
  const Vertex edge_limit = opts.edge_limit == 0 ? rho : opts.edge_limit;
  const Vertex n = g.num_vertices();
  std::vector<Dist> dist(n, 0);
  std::vector<Vertex> hops(n, 0);
  std::vector<Vertex> parent(n, kNoVertex);
  std::vector<bool> seen(n, false);
  IndexedHeap<Key> heap(n);

  Ball ball;
  ball.source = source;
  auto touch = [&](Vertex v, Dist d, Vertex h, Vertex p) {
    dist[v] = d;
    hops[v] = h;
    parent[v] = p;
    seen[v] = true;
  };
  touch(source, 0, 0, kNoVertex);
  heap.insert_or_decrease(source, Key{0, 0, source});

  Dist r_rho = 0;
  bool radius_fixed = false;
  while (!heap.empty()) {
    const auto [key, u] = heap.min();
    if (radius_fixed && key.d > r_rho) break;
    heap.extract_min();
    ball.vertices.push_back(BallVertex{u, key.d, key.h, parent[u]});
    if (!radius_fixed && ball.vertices.size() >= rho) {
      r_rho = key.d;
      radius_fixed = true;
      if (!opts.settle_ties) break;
    }
    const EdgeId lo = g.first_arc(u);
    const EdgeId hi =
        std::min(g.last_arc(u), lo + static_cast<EdgeId>(edge_limit));
    for (EdgeId e = lo; e < hi; ++e) {
      ++ball.arcs_scanned;
      const Vertex v = g.arc_target(e);
      const Key cand{key.d + g.arc_weight(e), static_cast<Vertex>(key.h + 1),
                     v};
      if (!seen[v]) {
        touch(v, cand.d, cand.h, u);
        heap.insert_or_decrease(v, cand);
      } else if (heap.contains(v)) {
        const Key cur{dist[v], hops[v], v};
        if (cand < cur) {
          touch(v, cand.d, cand.h, u);
          heap.insert_or_decrease(v, cand);
        }
      }
    }
  }
  ball.radius = radius_fixed ? r_rho
                             : (ball.vertices.empty()
                                    ? 0
                                    : ball.vertices.back().dist);
  return ball;
}

TEST(BallSearch, BoundedSearchMatchesUnboundedReference) {
  // Tie-heavy graphs: unit and near-unit weights make many (dist, hops)
  // ties, so any dependence of the ball on skipped relaxations would show.
  const Graph web = gen::web_graph(400, 4, 7);
  const std::vector<test::GraphCase> graphs = {
      {"grid-unit", gen::grid2d(20, 20)},
      {"road-1..2", assign_uniform_weights(gen::road_network(20, 20, 3), 5,
                                           1, 2)},
      {"web-unit", web},
      {"web-1..3", assign_uniform_weights(web, 9, 1, 3)},
      {"star", gen::star(200)},
  };
  const Vertex unrestricted = std::numeric_limits<Vertex>::max();
  BallSearchWorkspace ws;
  Ball got;
  for (const auto& [name, g0] : graphs) {
    const Graph g = g0.with_weight_sorted_adjacency();
    for (const Vertex rho : {1u, 2u, 5u, 16u, 64u}) {
      for (const bool ties : {true, false}) {
        for (const Vertex limit : {Vertex{0}, unrestricted}) {
          const BallOptions opts{rho, limit, ties};
          for (Vertex s = 0; s < g.num_vertices(); ++s) {
            ws.run(g, s, opts, got);
            const Ball want = reference_ball(g, s, opts);
            const std::string where = name + " rho=" + std::to_string(rho) +
                                      " ties=" + std::to_string(ties) +
                                      " limit=" + std::to_string(limit) +
                                      " s=" + std::to_string(s);
            ASSERT_EQ(got.source, want.source) << where;
            ASSERT_EQ(got.radius, want.radius) << where;
            ASSERT_EQ(got.vertices.size(), want.vertices.size()) << where;
            for (std::size_t i = 0; i < want.vertices.size(); ++i) {
              const BallVertex& a = got.vertices[i];
              const BallVertex& b = want.vertices[i];
              ASSERT_EQ(a.v, b.v) << where << " i=" << i;
              ASSERT_EQ(a.dist, b.dist) << where << " i=" << i;
              ASSERT_EQ(a.hops, b.hops) << where << " i=" << i;
              ASSERT_EQ(a.parent, b.parent) << where << " i=" << i;
            }
            ASSERT_LE(got.arcs_scanned, want.arcs_scanned) << where;
          }
        }
      }
    }
  }
}

TEST(KRadius, SortsItsInput) {
  // The unrestricted search behind all_k_radii_exact stops scanning at the
  // first arc past its bound, so it sorts adjacency itself: target-sorted
  // and weight-sorted inputs give the same radii.
  for (const auto& [name, g] : test::weighted_suite(10)) {
    EXPECT_EQ(all_k_radii_exact(g, 3),
              all_k_radii_exact(g.with_weight_sorted_adjacency(), 3))
        << name;
  }
}

TEST(AllRadii, MatchesPerSourceBalls) {
  const auto suite = test::weighted_suite(6);
  const auto& g = suite[0].graph;
  const Vertex rho = 12;
  const auto radii = all_radii(g, rho);
  const Graph gw = g.with_weight_sorted_adjacency();
  BallSearchWorkspace ws(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); v += 17) {
    EXPECT_EQ(radii[v], ws.run(gw, v, rho).radius) << v;
  }
}

TEST(AllRadii, RhoOneGivesAllZeros) {
  const Graph g = test::weighted_suite(1)[0].graph;
  for (const Dist r : all_radii(g, 1)) EXPECT_EQ(r, 0u);
}

TEST(AllRadii, RejectsRhoZero) {
  // Thrown before the parallel pass opens, so it reaches the caller at any
  // worker count instead of terminating the process.
  for (const int workers : {1, 3}) {
    const test::WorkerGuard guard(workers);
    EXPECT_THROW(all_radii(gen::chain(5), 0), std::invalid_argument)
        << workers;
  }
}

TEST(KRadius, EmptyGraphGivesNoRadii) {
  EXPECT_TRUE(all_k_radii_exact(Graph{}, 2).empty());
}

TEST(RadiiEncloseRho, RhoRadiiAlwaysPass) {
  for (const auto& [name, g] : test::weighted_suite(7)) {
    for (const Vertex rho : {Vertex{2}, Vertex{8}, Vertex{24}}) {
      EXPECT_TRUE(radii_enclose_rho(g, all_radii(g, rho), rho))
          << name << " rho=" << rho;
    }
  }
}

TEST(RadiiEncloseRho, DetectsTooSmallRadii) {
  const Graph g = test::weighted_suite(8)[0].graph;
  // Zero radii enclose only the vertex itself: fails for rho >= 2.
  EXPECT_FALSE(radii_enclose_rho(g, std::vector<Dist>(g.num_vertices(), 0), 2));
  EXPECT_TRUE(radii_enclose_rho(g, std::vector<Dist>(g.num_vertices(), 0), 1));
  // Shrinking one vertex's r_rho by 1 must be caught.
  auto radius = all_radii(g, 8);
  radius[5] -= 1;
  EXPECT_FALSE(radii_enclose_rho(g, radius, 8));
  // Size mismatch.
  EXPECT_FALSE(radii_enclose_rho(g, std::vector<Dist>(3, 0), 1));
}

TEST(RadiiEncloseRho, RejectsRhoZero) {
  const Graph g = gen::chain(5);
  for (const int workers : {1, 3}) {
    const test::WorkerGuard guard(workers);
    EXPECT_THROW(radii_enclose_rho(g, std::vector<Dist>(5, 0), 0),
                 std::invalid_argument)
        << workers;
  }
}

TEST(BallSearch, RadiusMonotoneInRho) {
  for (const auto& [name, g] : test::weighted_suite(9)) {
    Dist prev = 0;
    for (const Vertex rho : {Vertex{1}, Vertex{4}, Vertex{16}, Vertex{64}}) {
      const Ball ball = ball_search(g.with_weight_sorted_adjacency(), 2, rho);
      EXPECT_GE(ball.radius, prev) << name << " rho=" << rho;
      prev = ball.radius;
    }
  }
}

}  // namespace
}  // namespace rs
