// PreprocessContext and the shared ball pass (for_each_ball): preprocess()
// output must be invariant across worker counts (including the adversarial
// directed multigraphs, radii only), an IncrementalPreprocessor's warm
// pool must serve batches at changing worker counts, a context must be
// safely reusable across graphs of different sizes — growing and
// shrinking — without stale-stamp bugs leaking state between runs, and
// the pass must hand every source to f exactly once with its own ball.
#include "shortcut/preprocess_context.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <vector>

#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "graph/weights.hpp"
#include "parallel/primitives.hpp"
#include "shortcut/incremental.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

using test::WorkerGuard;

constexpr int kManyWorkers = 8;  // oversubscribed on small CI boxes — good

PreprocessOptions small_opts() {
  PreprocessOptions opts;
  opts.rho = 10;
  opts.k = 2;
  opts.heuristic = ShortcutHeuristic::kDP;
  return opts;
}

void expect_identical(const PreprocessResult& a, const PreprocessResult& b,
                      const std::string& name) {
  EXPECT_EQ(a.graph, b.graph) << name;
  EXPECT_EQ(a.radius, b.radius) << name;
  EXPECT_EQ(a.added_edges, b.added_edges) << name;
  EXPECT_EQ(a.added_factor, b.added_factor) << name;
}

std::vector<test::GraphCase> both_suites(std::uint64_t seed) {
  auto cases = test::weighted_suite(seed);
  for (auto& c : test::adversarial_suite(seed)) cases.push_back(std::move(c));
  return cases;
}

/// small_opts(), or its radii-only kNone form for a directed graph, which
/// shortcut-adding heuristics reject.
PreprocessOptions opts_for(const Graph& g) {
  PreprocessOptions opts = small_opts();
  if (!is_symmetric(g)) opts.heuristic = ShortcutHeuristic::kNone;
  return opts;
}

TEST(PreprocessPool, WorkerCountInvariantOverBothSuites) {
  // 1-vs-N-worker bit-identical PreprocessResult — including the directed /
  // self-loop / parallel-arc adversarial multigraphs.
  for (const auto& [name, g] : both_suites(17)) {
    const PreprocessOptions opts = opts_for(g);
    PreprocessResult pre1, preN;
    {
      WorkerGuard guard(1);
      pre1 = preprocess(g, opts);
    }
    {
      WorkerGuard guard(kManyWorkers);
      preN = preprocess(g, opts);
    }
    expect_identical(pre1, preN, name);
  }
}

TEST(PreprocessPool, WorkerCountChangeOnOneWarmPool) {
  // One IncrementalPreprocessor's pool serving a wide flush, then a
  // 1-worker flush, then a wide one again: each result must still be the
  // cold build of the current graph.
  const PreprocessOptions opts = small_opts();
  IncrementalPreprocessor inc(test::weighted_suite(19)[0].graph, opts);
  std::mt19937 rng(19);
  for (const int workers : {kManyWorkers, 1, kManyWorkers}) {
    WorkerGuard guard(workers);
    const Graph& g = inc.graph();
    std::uniform_int_distribution<Vertex> vertex(0, g.num_vertices() - 1);
    std::uniform_int_distribution<Weight> weight(1, 150);
    std::vector<WeightUpdate> batch;
    for (int i = 0; i < 6; ++i) {
      const Vertex u = vertex(rng);
      if (g.degree(u) == 0) continue;
      batch.push_back(WeightUpdate{u, g.arc_target(g.first_arc(u)),
                                   weight(rng)});
    }
    EXPECT_GT(inc.apply(batch).dirty_balls, 0u) << workers;
    expect_identical(inc.result(), preprocess(inc.graph(), opts),
                     "after a batch at " + std::to_string(workers));
  }
}

TEST(PreprocessContext, BallAndSelectMatchFreshAcrossGraphSizes) {
  // Context-level grow/shrink: one context running balls on a large graph,
  // then a small one, then the large one again gives exactly the balls a
  // fresh workspace computes — for every heuristic on the reused scratch.
  const Graph big = assign_uniform_weights(gen::grid2d(18, 19), 7, 1, 100)
                        .with_weight_sorted_adjacency();
  const Graph small = assign_uniform_weights(gen::chain(9), 8, 1, 100)
                          .with_weight_sorted_adjacency();
  PreprocessContext ctx;
  const BallOptions opts{8, 0, /*settle_ties=*/true};
  const auto check = [&](const Graph& g, const char* label) {
    for (Vertex s = 0; s < g.num_vertices(); s += 7) {
      const Ball& got = ctx.ball(g, s, opts);
      BallSearchWorkspace fresh(g.num_vertices());
      const Ball want = fresh.run(g, s, opts);
      ASSERT_EQ(got.vertices.size(), want.vertices.size()) << label << " " << s;
      EXPECT_EQ(got.radius, want.radius) << label << " " << s;
      for (std::size_t i = 0; i < want.vertices.size(); ++i) {
        EXPECT_EQ(got.vertices[i].v, want.vertices[i].v) << label << " " << s;
        EXPECT_EQ(got.vertices[i].dist, want.vertices[i].dist)
            << label << " " << s;
        EXPECT_EQ(got.vertices[i].hops, want.vertices[i].hops)
            << label << " " << s;
      }
      for (const auto heuristic :
           {ShortcutHeuristic::kFull1Rho, ShortcutHeuristic::kGreedy,
            ShortcutHeuristic::kDP}) {
        EXPECT_EQ(ctx.select(got, 2, heuristic),
                  select_shortcuts(want, 2, heuristic))
            << label << " " << s << " " << to_string(heuristic);
      }
    }
  };
  check(big, "big");
  check(small, "small");
  check(big, "big again");
}

TEST(PreprocessContext, ForEachBallCallsEverySourceOnce) {
  // An explicit source list (with a repeat) and the all-vertices form, at
  // one, three and eight workers: f sees slot i exactly once, with the
  // ball of its source.
  const Graph gw = assign_uniform_weights(gen::grid2d(9, 11), 5, 1, 100)
                       .with_weight_sorted_adjacency();
  const Vertex n = gw.num_vertices();
  const BallOptions opts{6, 0, /*settle_ties=*/true};
  const std::vector<Vertex> sources{n - 1, 3, 0, 3, 42};
  for (const int workers : {1, 3, kManyWorkers}) {
    WorkerGuard guard(workers);
    PreprocessPool pool;
    for (const bool all : {false, true}) {
      const std::size_t count = all ? n : sources.size();
      std::vector<std::atomic<int>> calls(count);
      std::vector<Dist> radius(count, kInfDist);
      std::vector<Vertex> source(count, kNoVertex);
      for_each_ball(gw, all ? nullptr : sources.data(), count, opts, pool,
                    [&](PreprocessContext&, std::size_t i, const Ball& ball) {
                      calls[i].fetch_add(1);
                      radius[i] = ball.radius;
                      source[i] = ball.source;
                    });
      BallSearchWorkspace fresh(n);
      for (std::size_t i = 0; i < count; ++i) {
        const Vertex s = all ? static_cast<Vertex>(i) : sources[i];
        EXPECT_EQ(calls[i].load(), 1) << workers << " " << i;
        EXPECT_EQ(source[i], s) << workers << " " << i;
        EXPECT_EQ(radius[i], fresh.run(gw, s, opts).radius)
            << workers << " " << i;
      }
    }
  }
}

}  // namespace
}  // namespace rs
