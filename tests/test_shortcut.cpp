#include "shortcut/shortcut.hpp"

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "baseline/dijkstra.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "shortcut/global_opt.hpp"
#include "shortcut/kradius.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

Ball ball_of(const Graph& g, Vertex src, Vertex rho) {
  return ball_search(g.with_weight_sorted_adjacency(), src, rho);
}

TEST(SelectShortcuts, FullSchemeTakesEverythingBeyondOneHop) {
  const Graph g = assign_uniform_weights(gen::grid2d(8, 8), 1, 1, 50);
  const Ball ball = ball_of(g, 0, 20);
  const auto sel = select_shortcuts(ball, 1, ShortcutHeuristic::kFull1Rho);
  std::size_t beyond = 0;
  for (std::size_t i = 1; i < ball.vertices.size(); ++i) {
    if (ball.vertices[i].hops > 1) ++beyond;
  }
  EXPECT_EQ(sel.size(), beyond);
  for (const auto idx : sel) EXPECT_GT(ball.vertices[idx].hops, 1u);
}

TEST(SelectShortcuts, GreedyPicksDepthsKiPlusOne) {
  const Graph g = assign_unit_weights(gen::chain(30));
  const Ball ball = ball_of(g, 0, 20);  // a path: depths 0..19+
  const Vertex k = 3;
  const auto sel = select_shortcuts(ball, k, ShortcutHeuristic::kGreedy);
  for (const auto idx : sel) {
    const Vertex h = ball.vertices[idx].hops;
    EXPECT_GT(h, k);
    EXPECT_EQ((h - 1) % k, 0u) << "depth " << h;
  }
  // Depths 4, 7, 10, ... must all be present.
  std::vector<Vertex> depths;
  for (const auto idx : sel) depths.push_back(ball.vertices[idx].hops);
  std::sort(depths.begin(), depths.end());
  ASSERT_FALSE(depths.empty());
  EXPECT_EQ(depths.front(), k + 1);
}

TEST(SelectShortcuts, NoneSelectsNothing) {
  const Graph g = assign_unit_weights(gen::chain(30));
  const Ball ball = ball_of(g, 0, 20);
  EXPECT_TRUE(select_shortcuts(ball, 3, ShortcutHeuristic::kNone).empty());
}

TEST(SelectShortcuts, DpOnChainUsesFloorDepthOverK) {
  // A path of depth D needs ceil((D - k) / k) shortcuts... exactly the
  // brute-force optimum; check against it.
  const Graph g = assign_unit_weights(gen::chain(16));
  const Ball ball = ball_of(g, 0, 14);
  for (const Vertex k : {Vertex{1}, Vertex{2}, Vertex{3}, Vertex{5}}) {
    const auto dp = select_shortcuts(ball, k, ShortcutHeuristic::kDP);
    EXPECT_EQ(dp.size(), min_shortcuts_bruteforce(ball, k)) << "k=" << k;
  }
}

TEST(SelectShortcuts, DpBeatsGreedyOnPaperCounterexample) {
  // §4.2.1's bad case: a chain of length k, then a broom of many leaves at
  // level k+1. Greedy shortcuts every leaf; the optimum is 1 edge (to the
  // chain end).
  const Vertex k = 3;
  std::vector<EdgeTriple> edges;
  // chain 0-1-2-3
  for (Vertex v = 0; v + 1 <= k; ++v) edges.push_back({v, v + 1, 1});
  // leaves 4..13 hanging off vertex 3 (depth k+1)
  for (Vertex leaf = k + 1; leaf < k + 11; ++leaf) {
    edges.push_back({k, leaf, 1});
  }
  const Graph g = build_graph(k + 11, edges);
  const Ball ball = ball_of(g, 0, g.num_vertices());
  const auto greedy = select_shortcuts(ball, k, ShortcutHeuristic::kGreedy);
  const auto dp = select_shortcuts(ball, k, ShortcutHeuristic::kDP);
  EXPECT_EQ(greedy.size(), 10u);  // all leaves
  EXPECT_EQ(dp.size(), 1u);       // shortcut the chain end
  EXPECT_EQ(ball.vertices[dp[0]].hops, k);
}

class DpOptimalityTest : public ::testing::TestWithParam<int> {};

TEST_P(DpOptimalityTest, DpMatchesBruteforceOnRandomBalls) {
  const int seed = GetParam();
  // Small random graphs so the exponential oracle stays cheap.
  const Graph g = assign_uniform_weights(
      largest_component(
          gen::erdos_renyi(24, 40, static_cast<std::uint64_t>(seed))),
      static_cast<std::uint64_t>(seed) + 100, 1, 20);
  const Graph gw = g.with_weight_sorted_adjacency();
  BallSearchWorkspace ws(g.num_vertices());
  for (Vertex src = 0; src < g.num_vertices(); src += 3) {
    const Ball ball =
        ws.run(gw, src, BallOptions{12, 0, /*settle_ties=*/false});
    if (ball.vertices.size() > 18) continue;  // keep 2^B tractable
    for (const Vertex k : {Vertex{1}, Vertex{2}, Vertex{3}}) {
      const auto dp = select_shortcuts(ball, k, ShortcutHeuristic::kDP);
      EXPECT_EQ(dp.size(), min_shortcuts_bruteforce(ball, k))
          << "seed=" << seed << " src=" << src << " k=" << k;
    }
  }
}

/// Tree depth of every member of `ball` once the `selected` members hang
/// off the source directly; the largest of them.
Vertex depth_after(const Ball& ball,
                   const std::vector<std::uint32_t>& selected) {
  const std::size_t b = ball.vertices.size();
  std::vector<std::uint8_t> has(b, 0);
  for (const auto idx : selected) has[idx] = 1;
  std::vector<Vertex> depth(b, 0);
  Vertex deepest = 0;
  for (std::size_t i = 1; i < b; ++i) {
    std::size_t p = 0;
    while (ball.vertices[p].v != ball.vertices[i].parent) ++p;
    depth[i] = has[i] ? 1 : depth[p] + 1;
    deepest = std::max(deepest, depth[i]);
  }
  return deepest;
}

TEST_P(DpOptimalityTest, DpSelectsNothingExactlyWithinKHops) {
  // A sparse and a denser random graph: deep and shallow balls.
  const int seed = GetParam();
  for (const EdgeId m : {EdgeId{26}, EdgeId{40}}) {
    const Graph g = assign_uniform_weights(
        largest_component(
            gen::erdos_renyi(24, m, static_cast<std::uint64_t>(seed))),
        static_cast<std::uint64_t>(seed) + 200, 1, 20);
    const Graph gw = g.with_weight_sorted_adjacency();
    BallSearchWorkspace ws(g.num_vertices());
    for (Vertex src = 0; src < g.num_vertices(); ++src) {
      const Ball ball =
          ws.run(gw, src, BallOptions{14, 0, /*settle_ties=*/false});
      if (ball.vertices.size() > 18) continue;  // keep 2^B tractable
      const Vertex depth = depth_after(ball, {});
      for (Vertex k = 1; k <= std::max<Vertex>(depth, 1); ++k) {
        const auto dp = select_shortcuts(ball, k, ShortcutHeuristic::kDP);
        EXPECT_EQ(dp.empty(), depth <= k)
            << "seed=" << seed << " src=" << src << " k=" << k;
        if (dp.empty()) continue;
        EXPECT_EQ(dp.size(), min_shortcuts_bruteforce(ball, k))
            << "seed=" << seed << " src=" << src << " k=" << k;
        EXPECT_LE(depth_after(ball, dp), k)
            << "seed=" << seed << " src=" << src << " k=" << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpOptimalityTest, ::testing::Range(0, 10));

TEST(SelectShortcuts, DpNeverWorseThanGreedy) {
  for (const auto& [name, g] : test::weighted_suite(3)) {
    const Ball ball = ball_of(g, 1, 32);
    for (const Vertex k : {Vertex{2}, Vertex{3}, Vertex{4}}) {
      const auto dp = select_shortcuts(ball, k, ShortcutHeuristic::kDP);
      const auto greedy = select_shortcuts(ball, k, ShortcutHeuristic::kGreedy);
      EXPECT_LE(dp.size(), greedy.size()) << name << " k=" << k;
    }
  }
}

TEST(SelectShortcuts, ShortcutSetActuallyBoundsHops) {
  // Property: after applying the selected shortcuts (re-rooting them at
  // depth 1), every ball member sits within k hops — for all heuristics.
  for (const auto& [name, g] : test::weighted_suite(4)) {
    const Ball ball = ball_of(g, 0, 40);
    const std::size_t b = ball.vertices.size();
    // Local parent indices.
    std::vector<std::size_t> parent(b, 0);
    {
      std::vector<std::int64_t> pos(g.num_vertices(), -1);
      for (std::size_t i = 0; i < b; ++i) {
        pos[ball.vertices[i].v] = static_cast<std::int64_t>(i);
      }
      for (std::size_t i = 1; i < b; ++i) {
        parent[i] = static_cast<std::size_t>(pos[ball.vertices[i].parent]);
      }
    }
    for (const Vertex k : {Vertex{1}, Vertex{2}, Vertex{3}}) {
      for (const auto heuristic :
           {ShortcutHeuristic::kFull1Rho, ShortcutHeuristic::kGreedy,
            ShortcutHeuristic::kDP}) {
        const Vertex kk = heuristic == ShortcutHeuristic::kFull1Rho ? 1 : k;
        const auto sel = select_shortcuts(ball, kk, heuristic);
        std::vector<std::uint8_t> has(b, 0);
        for (const auto idx : sel) has[idx] = 1;
        std::vector<Vertex> depth(b, 0);
        for (std::size_t i = 1; i < b; ++i) {
          depth[i] = has[i] ? 1 : depth[parent[i]] + 1;
          EXPECT_LE(depth[i], kk)
              << name << " " << to_string(heuristic) << " k=" << kk;
        }
      }
    }
  }
}

class KRhoPropertyTest
    : public ::testing::TestWithParam<std::tuple<Vertex, ShortcutHeuristic>> {};

TEST_P(KRhoPropertyTest, PreprocessingYieldsKRhoGraph) {
  const auto [k, heuristic] = GetParam();
  for (const auto& [name, g] : test::weighted_suite(5)) {
    PreprocessOptions opts;
    opts.rho = 12;
    opts.k = k;
    opts.heuristic = heuristic;
    const PreprocessResult pre = preprocess(g, opts);
    const Vertex effective_k =
        heuristic == ShortcutHeuristic::kFull1Rho ? 1 : k;
    // Definition 4 on the augmented graph: r_rho(v) <= r̄_k(v).
    EXPECT_TRUE(is_k_rho_graph(pre.graph, pre.radius, effective_k))
        << name << " k=" << k << " " << to_string(heuristic);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KsAndHeuristics, KRhoPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(ShortcutHeuristic::kFull1Rho,
                                         ShortcutHeuristic::kGreedy,
                                         ShortcutHeuristic::kDP)));

TEST(Preprocess, ShortcutsPreserveAllDistances) {
  for (const auto& [name, g] : test::weighted_suite(6)) {
    PreprocessOptions opts;
    opts.rho = 16;
    opts.k = 2;
    opts.heuristic = ShortcutHeuristic::kDP;
    const PreprocessResult pre = preprocess(g, opts);
    for (const Vertex src : {Vertex{0}, g.num_vertices() / 2}) {
      EXPECT_EQ(dijkstra(pre.graph, src), dijkstra(g, src)) << name;
    }
  }
}

TEST(Preprocess, RadiiMatchAllRadii) {
  const Graph g = test::weighted_suite(7)[0].graph;
  PreprocessOptions opts;
  opts.rho = 10;
  opts.heuristic = ShortcutHeuristic::kNone;
  const PreprocessResult pre = preprocess(g, opts);
  EXPECT_EQ(pre.radius, all_radii(g, 10));
  EXPECT_EQ(pre.added_edges, 0u);
  EXPECT_EQ(pre.graph, g);
}

TEST(Preprocess, AddedFactorAccounting) {
  // Both producers of merged results: the per-ball heuristic and the global
  // cover pass, whose raw shortcut triples include duplicates that the
  // merge collapses.
  const Graph g = assign_uniform_weights(gen::grid2d(12, 12), 8, 1, 1000);
  PreprocessOptions opts;
  opts.rho = 20;
  opts.k = 1;
  opts.heuristic = ShortcutHeuristic::kFull1Rho;
  const std::pair<const char*, PreprocessResult> results[] = {
      {"preprocess", preprocess(g, opts)},
      {"preprocess_global", preprocess_global(g, opts)}};
  for (const auto& [name, pre] : results) {
    EXPECT_EQ(pre.graph.num_undirected_edges(),
              g.num_undirected_edges() + pre.added_edges)
        << name;
    EXPECT_GT(pre.added_edges, 0u) << name;
    EXPECT_NEAR(pre.added_factor,
                double(pre.added_edges) / double(g.num_undirected_edges()),
                1e-12)
        << name;
    EXPECT_EQ(pre.options.heuristic, opts.heuristic) << name;
    // At most (rho - 1) shortcuts per source (and usually far fewer are
    // new).
    EXPECT_LE(pre.added_edges,
              static_cast<EdgeId>(g.num_vertices()) * (opts.rho - 1))
        << name;
  }
}

TEST(Preprocess, LargerKAddsFewerEdges) {
  const Graph g = assign_uniform_weights(gen::grid2d(16, 16), 9, 1, 1000);
  EdgeId prev = ~EdgeId{0};
  for (const Vertex k : {Vertex{1}, Vertex{2}, Vertex{4}}) {
    PreprocessOptions opts;
    opts.rho = 24;
    opts.k = k;
    opts.heuristic = ShortcutHeuristic::kDP;
    const PreprocessResult pre = preprocess(g, opts);
    EXPECT_LE(pre.added_edges, prev) << "k=" << k;
    prev = pre.added_edges;
  }
}

TEST(Preprocess, ExactRhoTieModeStillYieldsKRhoGraph) {
  for (const auto& [name, g] : test::unweighted_suite(2)) {
    PreprocessOptions opts;
    opts.rho = 10;
    opts.k = 2;
    opts.heuristic = ShortcutHeuristic::kDP;
    opts.settle_ties = false;
    const PreprocessResult pre = preprocess(g, opts);
    EXPECT_TRUE(is_k_rho_graph(pre.graph, pre.radius, 2)) << name;
    EXPECT_EQ(dijkstra(pre.graph, 0), dijkstra(g, 0)) << name;
  }
}

TEST(Preprocess, RejectsBadParameters) {
  const Graph g = gen::chain(4);
  PreprocessOptions opts;
  opts.rho = 0;
  EXPECT_THROW(preprocess(g, opts), std::invalid_argument);
  opts.rho = 2;
  opts.k = 0;
  EXPECT_THROW(preprocess(g, opts), std::invalid_argument);
}

TEST(Preprocess, HugeRhoAndKMatchWholeGraphBalls) {
  // Past n, rho and k cannot change a ball or its shortcut set. They used
  // to size allocations all the same: the ball reserve of rho + 4 entries
  // (wrapping near 2^32) and the b x (k + 1) DP table, whose bad_alloc
  // escaped preprocess()'s parallel region and aborted the process.
  const Graph g = test::weighted_suite(3)[2].graph;  // road 15 x 15
  const Vertex n = g.num_vertices();
  PreprocessOptions whole;
  whole.rho = n;
  whole.k = n;
  const PreprocessResult want = preprocess(g, whole);
  for (const Vertex rho :
       {Vertex{1} << 30, std::numeric_limits<Vertex>::max()}) {
    PreprocessOptions huge;
    huge.rho = rho;
    huge.k = std::numeric_limits<Vertex>::max();
    const PreprocessResult got = preprocess(g, huge);
    EXPECT_EQ(got.graph, want.graph) << "rho=" << rho;
    EXPECT_EQ(got.radius, want.radius) << "rho=" << rho;
    EXPECT_EQ(got.added_edges, want.added_edges) << "rho=" << rho;
  }
}

TEST(KRadiusExact, HandComputedChain) {
  // Unit chain 0-1-2-3-4: from vertex 0, r̄_2 = distance to vertex 3 = 3.
  const Graph g = assign_unit_weights(gen::chain(5));
  EXPECT_EQ(k_radius_exact(g, 0, 2), 3u);
  EXPECT_EQ(k_radius_exact(g, 2, 2), kInfDist);  // everything within 2 hops
  EXPECT_EQ(k_radius_exact(g, 0, 4), kInfDist);
}

TEST(KRadiusExact, ManyParallelArcsDoNotTruncateTheScan) {
  // Vertex 0 carries more outgoing arcs than the graph has vertices
  // (parallel arcs kept, dedup off). Arcs are CSR-sorted by (target,
  // weight), so the arc to the highest-numbered target sits beyond
  // position n: a ball scan whose edge limit were n (instead of
  // unbounded) would never see it and report a wrong k-radius.
  BuildOptions keep;
  keep.symmetrize = false;
  keep.remove_self_loops = false;
  keep.dedup = false;
  const Vertex n = 8;
  std::vector<EdgeTriple> edges;
  for (Vertex v = 1; v <= 5; ++v) {  // 10 arcs ahead of the critical one
    edges.push_back({0, v, 50});
    edges.push_back({0, v, 60});
  }
  edges.push_back({0, 6, 1});  // sorts last among 0's arcs (11th of 11)
  edges.push_back({6, 7, 1});
  const Graph g = build_graph(n, std::move(edges), keep);
  // d(7) = 2 in 2 hops (0->6->7); every other reachable vertex is 1 hop.
  // r̄_1(0) = 2 — but only if the scan reaches the 11th arc of vertex 0.
  EXPECT_EQ(k_radius_exact(g, 0, 1), 2u);
}

TEST(KRadiusExact, MatchesMinHopTreeOnAdversarialMultigraphs) {
  // Reference semantics: the min-hop Dijkstra tree, over the directed /
  // self-loop / parallel-arc suite.
  for (const auto& [name, g] : test::adversarial_suite(31)) {
    for (const Vertex k : {Vertex{1}, Vertex{3}}) {
      const auto got = all_k_radii_exact(g, k);
      for (Vertex v = 0; v < g.num_vertices(); v += 7) {
        const ShortestPathTreeResult tree = dijkstra_min_hop_tree(g, v);
        Dist want = kInfDist;
        for (Vertex u = 0; u < g.num_vertices(); ++u) {
          if (tree.dist[u] == kInfDist || u == v) continue;
          if (tree.hops[u] > k && tree.dist[u] < want) want = tree.dist[u];
        }
        EXPECT_EQ(got[v], want) << name << " k=" << k << " v=" << v;
      }
    }
  }
}

TEST(KRadiusExact, UsesMinHopPath) {
  // Two routes to vertex 3: 0-1-2-3 (w 1+1+1=3) and 0-3 (w 3). Equal
  // distance; d̂ uses the fewest-edge shortest path, so d̂(0,3) = 1 and
  // vertex 3 must NOT be counted beyond k=2.
  const Graph g = build_graph(
      4, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {0, 3, 3}});
  EXPECT_EQ(k_radius_exact(g, 0, 2), kInfDist);
}

}  // namespace
}  // namespace rs
