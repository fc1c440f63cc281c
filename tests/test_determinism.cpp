// Thread-count determinism. Radius-Stepping's relaxations race through
// WriteMin, but the fixed point they converge to is the exact distance
// vector, so the OUTPUT must be bit-identical no matter how many OpenMP
// workers run — the property that makes parallel SSSP testable at all.
#include <gtest/gtest.h>

#include <vector>

#include "baseline/dijkstra.hpp"
#include "core/radii.hpp"
#include "core/radius_stepping.hpp"
#include "core/rs_bst.hpp"
#include "parallel/primitives.hpp"
#include "shortcut/shortcut.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

/// RAII worker-count override so a failing assertion can't leak a weird
/// thread count into later tests.
class WorkerGuard {
 public:
  explicit WorkerGuard(int n) : before_(num_workers()) { set_num_workers(n); }
  ~WorkerGuard() { set_num_workers(before_); }

 private:
  int before_;
};

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

}  // namespace
}  // namespace rs
