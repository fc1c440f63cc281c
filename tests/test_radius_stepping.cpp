#include "core/radius_stepping.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "baseline/bellman_ford.hpp"
#include "baseline/dijkstra.hpp"
#include "core/engine.hpp"
#include "core/radii.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "parallel/primitives.hpp"
#include "parallel/rng.hpp"
#include "shortcut/shortcut.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

TEST(RadiusStepping, TinyHandComputedGraph) {
  const Graph g = build_graph(4, {{0, 1, 5}, {0, 2, 9}, {1, 3, 1}, {2, 3, 2}});
  const auto d = radius_stepping(g, 0, constant_radii(4, 3));
  EXPECT_EQ(d, (std::vector<Dist>{0, 5, 8, 6}));
}

TEST(RadiusStepping, SingleVertexGraph) {
  const Graph g = build_graph(1, {});
  RunStats stats;
  const auto d = radius_stepping(g, 0, constant_radii(1, 0), &stats);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(stats.steps, 0u);
  EXPECT_EQ(stats.settled, 1u);
}

TEST(RadiusStepping, DisconnectedVerticesStayInfinite) {
  const Graph g = build_graph(5, {{0, 1, 2}, {1, 2, 2}});
  const auto d = radius_stepping(g, 0, constant_radii(5, 10));
  EXPECT_EQ(d[3], kInfDist);
  EXPECT_EQ(d[4], kInfDist);
  EXPECT_EQ(d[2], 4u);
}

TEST(RadiusStepping, RejectsBadArguments) {
  const Graph g = gen::chain(4);
  EXPECT_THROW(radius_stepping(g, 0, constant_radii(3, 0)),
               std::invalid_argument);
  EXPECT_THROW(radius_stepping(g, 9, constant_radii(4, 0)),
               std::invalid_argument);
}

// The central correctness battery: every graph shape, several radius
// choices, several sources — always Dijkstra's answer.
class CorrectnessTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CorrectnessTest, MatchesDijkstraForAnyRadii) {
  const auto [seed, src_pick] = GetParam();
  for (const auto& [name, g] : test::weighted_suite(seed)) {
    const Vertex n = g.num_vertices();
    const Vertex src =
        static_cast<Vertex>((static_cast<std::uint64_t>(src_pick) * 104729) %
                            n);
    const auto ref = dijkstra(g, src);

    EXPECT_EQ(radius_stepping(g, src, dijkstra_radii(n)), ref)
        << name << " r=0";
    EXPECT_EQ(radius_stepping(g, src, constant_radii(n, 7)), ref)
        << name << " r=7";
    EXPECT_EQ(radius_stepping(g, src, bellman_ford_radii(n)), ref)
        << name << " r=inf";
    EXPECT_EQ(radius_stepping(g, src, all_radii(g, 8)), ref)
        << name << " r=rho(8)";
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndSources, CorrectnessTest,
                         ::testing::Combine(::testing::Range(1, 5),
                                            ::testing::Range(0, 3)));

TEST(RadiusStepping, ZeroRadiiStepsEqualDistinctDistanceClasses) {
  // r = 0 degenerates to Dijkstra-with-batched-extraction: one step per
  // distinct nonzero distance value (the paper's rho = 1 row).
  for (const auto& [name, g] : test::weighted_suite(9)) {
    RunStats stats;
    const auto d =
        radius_stepping(g, 0, dijkstra_radii(g.num_vertices()), &stats);
    EXPECT_EQ(stats.steps, count_distinct_distances(d)) << name;
  }
}

TEST(RadiusStepping, InfiniteRadiiIsOneStepOfBellmanFord) {
  for (const auto& [name, g] : test::weighted_suite(10)) {
    RunStats stats;
    const auto d =
        radius_stepping(g, 0, bellman_ford_radii(g.num_vertices()), &stats);
    EXPECT_EQ(stats.steps, 1u) << name;
    EXPECT_EQ(d, dijkstra(g, 0)) << name;
  }
}

// Theorem 3.2: on a (k, rho)-graph with r = r_rho, every step runs at most
// k + 2 substeps. The preprocessed graph is split (merge_edges), so a
// vertex stops its weight-sorted shortcut scan at the first arc beyond d_i.
// Against the unsplit copy of the same arcs, which relaxes every arc,
// distances and steps must not change and fewer arcs are scanned, at one
// worker and at the default, through radius_stepping and SsspEngine::serve.
// k runs over 1, 2, 3 and the shipped default PreprocessOptions{}.k; at the
// default k few shortcut arcs are left, and a parallel run's scan count
// varies with the schedule by more than the cut-off saves, so that k
// compares the scans of one worker alone, which are deterministic.
class SubstepBoundTest
    : public ::testing::TestWithParam<std::tuple<Vertex, ShortcutHeuristic>> {};

TEST_P(SubstepBoundTest, MaxSubstepsWithinKPlusTwo) {
  const auto [k, heuristic] = GetParam();
  const Vertex effective_k =
      heuristic == ShortcutHeuristic::kFull1Rho ? 1 : k;
  const test::WorkerGuard guard;
  const int default_workers = guard.before();
  // The shipped default rho runs under every check below too.
  for (const Vertex rho : {12u, 64u, PreprocessOptions{}.rho}) {
    std::uint64_t scanned_pruned = 0;
    std::uint64_t scanned_unsplit = 0;
    for (const auto& [name, g] : test::weighted_suite(11)) {
      PreprocessOptions opts;
      opts.rho = rho;
      opts.k = k;
      opts.heuristic = heuristic;
      const PreprocessResult pre = preprocess(g, opts);
      ASSERT_EQ(pre.graph.shortcut_starts().size(), g.num_vertices());
      const Graph unsplit = pre.graph.with_target_sorted_adjacency();
      const SsspEngine engine(g, pre);
      const Vertex n = g.num_vertices();
      for (const int workers : {1, default_workers}) {
        set_num_workers(workers);
        for (const Vertex src : {Vertex{0}, n / 2, n - 1}) {
          const std::string where =
              name + " rho=" + std::to_string(rho) + " k=" +
              std::to_string(k) + " " + to_string(heuristic) +
              " workers=" + std::to_string(workers) +
              " src=" + std::to_string(src);
          const auto ref = dijkstra(g, src);
          RunStats pruned;
          RunStats control;
          EXPECT_EQ(radius_stepping(pre.graph, src, pre.radius, &pruned), ref)
              << where;
          EXPECT_EQ(radius_stepping(unsplit, src, pre.radius, &control), ref)
              << where;
          EXPECT_EQ(pruned.steps, control.steps) << where;
          EXPECT_LE(pruned.max_substeps_in_step, effective_k + 2u) << where;
          if (workers == 1 || k != PreprocessOptions{}.k) {
            scanned_pruned += pruned.edges_scanned;
            scanned_unsplit += control.edges_scanned;
          }

          QueryRequest req;
          req.source = src;
          req.want_full_distances = true;
          const QueryResponse all = engine.serve(req);
          EXPECT_EQ(all.dist, ref) << where;
          EXPECT_EQ(all.stats.steps, control.steps) << where;
          req.want_full_distances = false;
          req.targets = {n - 1, n / 2};
          const QueryResponse some = engine.serve(req);
          ASSERT_EQ(some.targets.size(), 2u) << where;
          EXPECT_EQ(some.targets[0].dist, ref[n - 1]) << where;
          EXPECT_EQ(some.targets[1].dist, ref[n / 2]) << where;
          EXPECT_LE(some.stats.max_substeps_in_step, effective_k + 2u)
              << where;
        }
      }
    }
    EXPECT_LT(scanned_pruned, scanned_unsplit)
        << to_string(heuristic) << " rho=" << rho << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KsAndHeuristics, SubstepBoundTest,
    ::testing::Combine(::testing::Values(1, 2, 3, PreprocessOptions{}.k),
                       ::testing::Values(ShortcutHeuristic::kFull1Rho,
                                         ShortcutHeuristic::kGreedy,
                                         ShortcutHeuristic::kDP)));

// Theorem 3.3: with |B(v, r(v))| >= rho, at most
// ceil(n/rho) * (1 + ceil(log2(rho * L))) steps.
class StepBoundTest : public ::testing::TestWithParam<Vertex> {};

TEST_P(StepBoundTest, StepsWithinTheoreticalBound) {
  const Vertex rho = GetParam();
  for (const auto& [name, g] : test::weighted_suite(12)) {
    const Vertex n = g.num_vertices();
    if (n < rho) continue;
    PreprocessOptions opts;
    opts.rho = rho;
    opts.k = 2;
    opts.heuristic = ShortcutHeuristic::kDP;
    const PreprocessResult pre = preprocess(g, opts);
    RunStats stats;
    radius_stepping(pre.graph, 0, pre.radius, &stats);
    const double L = pre.graph.max_weight();
    const std::size_t bound =
        static_cast<std::size_t>(std::ceil(double(n) / rho)) *
        (1 + static_cast<std::size_t>(std::ceil(std::log2(rho * L))));
    EXPECT_LE(stats.steps, bound) << name << " rho=" << rho;
  }
}

INSTANTIATE_TEST_SUITE_P(Rhos, StepBoundTest,
                         ::testing::Values(2, 4, 8, 16, 32));

TEST(RadiusStepping, StepsDecreaseWithRho) {
  // The paper's inverse-proportionality trend, in miniature: larger rho,
  // (weakly) fewer steps on every graph family.
  for (const auto& [name, g] : test::weighted_suite(13)) {
    std::size_t prev = ~std::size_t{0};
    for (const Vertex rho : {Vertex{1}, Vertex{8}, Vertex{32}}) {
      RunStats stats;
      radius_stepping(g, 0, all_radii(g, rho), &stats);
      EXPECT_LE(stats.steps, prev) << name << " rho=" << rho;
      prev = stats.steps;
    }
  }
}

TEST(RadiusStepping, StatsInternallyConsistent) {
  const Graph g = test::weighted_suite(14)[0].graph;
  RunStats stats;
  const auto d = radius_stepping(g, 0, all_radii(g, 8), &stats);
  std::size_t reachable = 0;
  for (const Dist x : d) {
    if (x != kInfDist) ++reachable;
  }
  EXPECT_EQ(stats.settled, reachable);
  EXPECT_GE(stats.substeps, stats.steps);
  EXPECT_GE(stats.max_substeps_in_step, 1u);
  EXPECT_LE(stats.max_active, static_cast<std::size_t>(g.num_vertices()));
  EXPECT_GT(stats.relaxations, 0u);
}

TEST(RadiusStepping, DeterministicAcrossRunsAndThreadCounts) {
  const Graph g = test::weighted_suite(15)[2].graph;
  const auto radius = all_radii(g, 8);
  RunStats s1, s2, s4;
  const auto d1 = radius_stepping(g, 3, radius, &s1);

  const test::WorkerGuard guard(1);
  const auto d2 = radius_stepping(g, 3, radius, &s2);
  set_num_workers(4);
  const auto d4 = radius_stepping(g, 3, radius, &s4);

  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d4);
  // Step boundaries are schedule-independent (d_i is a pure min over a
  // deterministic frontier state).
  EXPECT_EQ(s1.steps, s2.steps);
  EXPECT_EQ(s1.steps, s4.steps);
}

TEST(RadiusStepping, SourceArgmin) {
  // Source with index != 0 works and distances are symmetric on an
  // undirected graph: d(a, b) == d(b, a).
  const Graph g = test::weighted_suite(16)[0].graph;
  const auto radius = all_radii(g, 4);
  const Vertex a = 1;
  const Vertex b = g.num_vertices() - 2;
  const auto da = radius_stepping(g, a, radius);
  const auto db = radius_stepping(g, b, radius);
  EXPECT_EQ(da[b], db[a]);
}

TEST(RadiusStepping, HeterogeneousRadiiStillCorrect) {
  // Adversarial radii: alternating 0 and large — correct for ANY radii.
  for (const auto& [name, g] : test::weighted_suite(17)) {
    const Vertex n = g.num_vertices();
    std::vector<Dist> radius(n);
    for (Vertex v = 0; v < n; ++v) radius[v] = (v % 2 == 0) ? 0 : 1000;
    EXPECT_EQ(radius_stepping(g, 0, radius), dijkstra(g, 0)) << name;
  }
}

TEST(RadiusStepping, ZeroWeightEdgesSettleWithinTheStep) {
  // Zero-weight chains extend an annulus at the same distance; the substep
  // loop must keep settling them before the step closes. (The paper's step
  // bound assumes min weight 1; correctness does not.)
  const SplitRng rng(88);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<EdgeTriple> edges;
    const Vertex n = 60;
    for (Vertex v = 0; v + 1 < n; ++v) {
      edges.push_back(
          {v, v + 1, static_cast<Weight>(rng.bounded(0, trial * 100 + v, 3))});
    }
    for (int extra = 0; extra < 40; ++extra) {
      const Vertex u =
          static_cast<Vertex>(rng.bounded(1, trial * 100 + extra, n));
      const Vertex v =
          static_cast<Vertex>(rng.bounded(2, trial * 100 + extra, n));
      if (u != v) {
        edges.push_back({u, v, static_cast<Weight>(rng.bounded(3, extra, 4))});
      }
    }
    const Graph g = build_graph(n, std::move(edges));
    const auto ref = dijkstra(g, 0);
    EXPECT_EQ(radius_stepping(g, 0, constant_radii(n, 2)), ref) << trial;
    EXPECT_EQ(radius_stepping(g, 0, dijkstra_radii(n)), ref) << trial;
  }
}

TEST(RadiusStepping, WorksOnPreprocessedAndOriginalGraphAlike) {
  // Running with r_rho radii but WITHOUT shortcut edges must still be
  // correct (substep bound no longer applies; distances do).
  for (const auto& [name, g] : test::weighted_suite(18)) {
    const auto radius = all_radii(g, 16);
    EXPECT_EQ(radius_stepping(g, 0, radius), dijkstra(g, 0)) << name;
  }
}

}  // namespace
}  // namespace rs
