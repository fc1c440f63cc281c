// PreprocessContext and the pooled preprocessing pipeline: pooled output
// must be bit-identical to the plain path, invariant across worker counts
// (including the adversarial directed multigraphs, radii only), and a pool
// must be safely reusable across graphs of different sizes — growing and
// shrinking — without stale-stamp bugs leaking state between runs.
#include "shortcut/preprocess_context.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "parallel/primitives.hpp"
#include "shortcut/kradius.hpp"
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

TEST(PreprocessPool, PooledMatchesPlainAndWarmRerun) {
  PreprocessPool pool;  // shared across ALL cases: cross-graph reuse too
  for (const auto& [name, g] : both_suites(13)) {
    const PreprocessOptions opts = opts_for(g);
    if (opts.heuristic == ShortcutHeuristic::kNone) {
      // Rejected before the pool is touched: later cases reuse it.
      EXPECT_THROW(preprocess(g, small_opts(), pool), std::invalid_argument)
          << name;
    }
    const PreprocessResult plain = preprocess(g, opts);
    const PreprocessResult pooled = preprocess(g, opts, pool);
    const PreprocessResult warm = preprocess(g, opts, pool);
    expect_identical(plain, pooled, name);
    expect_identical(plain, warm, name + " (warm rerun)");
  }
}

TEST(PreprocessPool, WorkerCountInvariantOverBothSuites) {
  // 1-vs-N-worker bit-identical PreprocessResult — including the directed /
  // self-loop / parallel-arc adversarial multigraphs.
  for (const auto& [name, g] : both_suites(17)) {
    const PreprocessOptions opts = opts_for(g);
    PreprocessResult pre1, preN;
    {
      WorkerGuard guard(1);
      PreprocessPool pool;
      pre1 = preprocess(g, opts, pool);
    }
    {
      WorkerGuard guard(kManyWorkers);
      PreprocessPool pool;
      preN = preprocess(g, opts, pool);
    }
    expect_identical(pre1, preN, name);
  }
}

TEST(PreprocessPool, WorkerCountChangeOnOneWarmPool) {
  // The same pool serving a wide run, then a 1-worker run, then wide again:
  // slots beyond the active worker count must not leak staged edges.
  const PreprocessOptions opts = small_opts();
  const Graph g = test::weighted_suite(19)[0].graph;
  const PreprocessResult expected = preprocess(g, opts);
  PreprocessPool pool;
  {
    WorkerGuard guard(kManyWorkers);
    expect_identical(expected, preprocess(g, opts, pool), "wide");
  }
  {
    WorkerGuard guard(1);
    expect_identical(expected, preprocess(g, opts, pool), "narrow");
  }
  {
    WorkerGuard guard(kManyWorkers);
    expect_identical(expected, preprocess(g, opts, pool), "wide again");
  }
}

TEST(PreprocessPool, ReuseAcrossGraphSizesGrowShrink) {
  // big -> small -> big on one pool; every run must match a fresh pool.
  // Shrinking leaves stale stamps for vertices beyond the small graph;
  // growing back must not resurrect them.
  const PreprocessOptions opts = small_opts();
  const Graph big = assign_uniform_weights(gen::grid2d(22, 20), 3, 1, 100);
  const Graph small = assign_uniform_weights(gen::grid2d(5, 4), 4, 1, 100);
  const PreprocessResult big_fresh = preprocess(big, opts);
  const PreprocessResult small_fresh = preprocess(small, opts);

  PreprocessPool pool;
  expect_identical(big_fresh, preprocess(big, opts, pool), "big");
  expect_identical(small_fresh, preprocess(small, opts, pool), "small");
  expect_identical(big_fresh, preprocess(big, opts, pool), "big again");
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

TEST(PreprocessPool, PooledRadiiAndKRadiiMatchPlain) {
  PreprocessPool pool;
  for (const auto& [name, g] : test::weighted_suite(21)) {
    EXPECT_EQ(all_radii(g, 8, pool), all_radii(g, 8)) << name;
    EXPECT_EQ(all_k_radii_exact(g, 2, pool), all_k_radii_exact(g, 2)) << name;
  }
}

TEST(SsspEngine, PooledConstructorMatchesPlain) {
  const Graph g = test::weighted_suite(27)[0].graph;
  PreprocessOptions opts;
  opts.rho = 12;
  opts.k = 2;
  PreprocessPool pool;
  const SsspEngine plain(g, opts);
  const SsspEngine pooled(g, opts, pool);
  const SsspEngine warm(g, opts, pool);
  expect_identical(plain.preprocessing(), pooled.preprocessing(), "pooled");
  expect_identical(plain.preprocessing(), warm.preprocessing(), "warm");
  EXPECT_EQ(plain.serve(test::full_request(3)).dist,
            warm.serve(test::full_request(3)).dist);
}

}  // namespace
}  // namespace rs
