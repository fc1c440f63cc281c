// Thread-count determinism. Radius-Stepping's relaxations race through
// WriteMin, but the fixed point they converge to is the exact distance
// vector, so the OUTPUT must be bit-identical no matter how many OpenMP
// workers run — the property that makes parallel SSSP testable at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baseline/dijkstra.hpp"
#include "core/query_context.hpp"
#include "core/radii.hpp"
#include "core/radius_stepping.hpp"
#include "core/rs_bst.hpp"
#include "parallel/primitives.hpp"
#include "shortcut/shortcut.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

using test::WorkerGuard;

constexpr int kManyWorkers = 8;  // oversubscribed on small CI boxes — good

TEST(Determinism, RadiusSteppingMatchesAcrossWorkerCounts) {
  for (const auto& c : test::weighted_suite(/*seed=*/11)) {
    const Vertex n = c.graph.num_vertices();
    const auto radii = constant_radii(n, 25);

    std::vector<Dist> d1, dN;
    {
      WorkerGuard guard(1);
      d1 = radius_stepping(c.graph, 0, radii);
    }
    {
      WorkerGuard guard(kManyWorkers);
      dN = radius_stepping(c.graph, 0, radii);
    }
    EXPECT_EQ(d1, dN) << c.name;
    EXPECT_EQ(d1, dijkstra(c.graph, 0)) << c.name;
  }
}

TEST(Determinism, FullPipelineMatchesAcrossWorkerCounts) {
  // Preprocessing (parallel ball searches + shortcut merge) and both
  // engines, end to end: the whole pipeline is worker-count invariant.
  PreprocessOptions opts;
  opts.rho = 12;
  opts.k = 2;
  opts.heuristic = ShortcutHeuristic::kGreedy;

  for (const auto& c : test::weighted_suite(/*seed=*/23)) {
    PreprocessResult pre1, preN;
    std::vector<Dist> flat1, flatN, bst1, bstN;
    {
      WorkerGuard guard(1);
      pre1 = preprocess(c.graph, opts);
      flat1 = radius_stepping(pre1.graph, 0, pre1.radius);
      bst1 = radius_stepping_bst(pre1.graph, 0, pre1.radius);
    }
    {
      WorkerGuard guard(kManyWorkers);
      preN = preprocess(c.graph, opts);
      flatN = radius_stepping(preN.graph, 0, preN.radius);
      bstN = radius_stepping_bst(preN.graph, 0, preN.radius);
    }
    // The preprocessing output itself is deterministic (ball order fixed by
    // a total (dist, hops, vertex) order, each source's arcs sorted by
    // (target, weight) whatever order the workers scattered them in, and
    // pure-hash weights), not just the distances.
    EXPECT_EQ(pre1.graph, preN.graph) << c.name;
    EXPECT_EQ(pre1.radius, preN.radius) << c.name;
    EXPECT_EQ(flat1, flatN) << c.name;
    EXPECT_EQ(bst1, bstN) << c.name;
    EXPECT_EQ(flat1, bst1) << c.name;
    EXPECT_EQ(flat1, dijkstra(pre1.graph, 0)) << c.name;
  }
}

TEST(Determinism, StatsSettledCountIsWorkerInvariant) {
  // steps/substeps may differ across schedules in principle; the settled
  // count equals the number of reachable vertices and must not.
  for (const auto& c : test::weighted_suite(/*seed=*/31)) {
    RunStats s1, sN;
    {
      WorkerGuard guard(1);
      radius_stepping(c.graph, 0, constant_radii(c.graph.num_vertices(), 40),
                      &s1);
    }
    {
      WorkerGuard guard(kManyWorkers);
      radius_stepping(c.graph, 0, constant_radii(c.graph.num_vertices(), 40),
                      &sN);
    }
    EXPECT_EQ(s1.settled, sN.settled) << c.name;
    EXPECT_EQ(s1.steps, sN.steps) << c.name;
  }
}

/// A star whose `legs` spokes have two arcs each: centre 0, inner vertex
/// i and outer vertex legs + i, weights 1..100. From the centre,
/// Phases::seed puts every inner vertex into worker 0's frontier, so with
/// radius >= 100 step 1's active list is worker 0's alone and every other
/// worker can only steal from it. A bare star would hide a chunk nobody
/// relaxed (its leaves get their distances from the seed); here that
/// chunk's outer vertices would stay unreached.
Graph two_arc_star(Vertex legs, std::uint64_t seed) {
  std::vector<EdgeTriple> edges;
  for (Vertex i = 1; i <= legs; ++i) {
    edges.push_back({0, i, 1});
    edges.push_back({i, legs + i, 1});
  }
  return assign_uniform_weights(build_graph(2 * legs + 1, std::move(edges)),
                                seed, 1, 100);
}

TEST(Determinism, StealingRelaxesEveryActiveVertexOnce) {
  // Odd and even team sizes, oversubscribed or not. Whoever takes a chunk
  // (its owner or a thief), the answer, the step sequence and the
  // first-touch records must be those of the one-worker run.
  std::vector<test::GraphCase> cases = test::weighted_suite(/*seed=*/41);
  cases.push_back({"two_arc_star", two_arc_star(2000, 43)});
  for (const auto& c : cases) {
    const Vertex n = c.graph.num_vertices();
    const auto radii = constant_radii(n, 100);
    const std::vector<Dist> ref = dijkstra(c.graph, 0);
    const auto reachable = static_cast<std::size_t>(std::count_if(
        ref.begin(), ref.end(), [](Dist d) { return d != kInfDist; }));
    RunStats s1;
    {
      WorkerGuard guard(1);
      radius_stepping(c.graph, 0, radii, &s1);
    }
    for (const int nw : {2, 3, 8}) {
      WorkerGuard guard(nw);
      RunStats sN;
      EXPECT_EQ(radius_stepping(c.graph, 0, radii, &sN), ref)
          << c.name << " at " << nw;
      EXPECT_EQ(sN.steps, s1.steps) << c.name << " at " << nw;
      EXPECT_EQ(sN.settled, s1.settled) << c.name << " at " << nw;
      EXPECT_EQ(sN.touched, reachable) << c.name << " at " << nw;

      // The O(touched) reset leaves no finite distance behind only if
      // every first touch was recorded; with touched == reachable above,
      // each was recorded exactly once.
      QueryContext ctx(n);
      radius_stepping_partial(c.graph, 0, radii, ctx);
      ctx.reset_touched();
      Vertex stale = 0;
      for (Vertex v = 0; v < n; ++v) {
        if (ctx.read_dist(v) != kInfDist) ++stale;
      }
      EXPECT_EQ(stale, 0u) << c.name << " at " << nw;
    }
  }
}

}  // namespace
}  // namespace rs
