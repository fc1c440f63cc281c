// IncrementalPreprocessor contract: after any sequence of weight-update
// batches, result() is BIT-IDENTICAL to a cold preprocess() of the
// current graph — same merged Graph (operator==), same radii, same edge
// accounting — across heuristics, worker counts, and the adversarial
// suite. Plus the accounting: small batches dirty a strict subset of the
// balls, and no-op batches dirty nothing.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "graph/update.hpp"
#include "parallel/primitives.hpp"
#include "shortcut/incremental.hpp"
#include "shortcut/shortcut.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

using test::WorkerGuard;

std::vector<WeightUpdate> random_updates(const Graph& g, std::size_t count,
                                         std::mt19937& rng) {
  std::uniform_int_distribution<Weight> weight(1, 150);
  std::uniform_int_distribution<EdgeId> arc(0, g.num_edges() - 1);
  std::vector<WeightUpdate> out;
  for (std::size_t i = 0; i < count; ++i) {
    const EdgeId e = arc(rng);
    Vertex u = 0;
    while (g.last_arc(u) <= e) ++u;
    out.push_back(WeightUpdate{u, g.arc_target(e), weight(rng)});
  }
  return out;
}

void expect_identical(const PreprocessResult& got, const PreprocessResult& want,
                      const std::string& label) {
  EXPECT_TRUE(got.graph == want.graph) << label << ": merged graph differs";
  EXPECT_EQ(got.radius, want.radius) << label;
  EXPECT_EQ(got.added_edges, want.added_edges) << label;
  EXPECT_DOUBLE_EQ(got.added_factor, want.added_factor) << label;
}

/// True when `g` is split and some vertex has a non-empty shortcut
/// segment.
bool has_shortcut_segment(const Graph& g) {
  if (g.shortcut_starts().size() != g.num_vertices()) return false;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (g.first_shortcut_arc(v) != g.last_arc(v)) return true;
  }
  return false;
}

TEST(IncrementalPreprocessor, InitMatchesColdBuild) {
  PreprocessOptions opts;
  opts.rho = 8;
  opts.k = 2;
  for (const auto& c : test::weighted_suite(31)) {
    const IncrementalPreprocessor inc(c.graph, opts);
    expect_identical(inc.result(), preprocess(c.graph, opts), c.name);
  }
}

TEST(IncrementalPreprocessor, ValidatesOptions) {
  const Graph g = test::weighted_suite(32)[0].graph;
  PreprocessOptions bad;
  bad.rho = 0;
  EXPECT_THROW(IncrementalPreprocessor(g, bad), std::invalid_argument);
  bad.rho = 8;
  bad.k = 0;
  EXPECT_THROW(IncrementalPreprocessor(g, bad), std::invalid_argument);
}

/// Randomized churn: batches of growing size, each followed by a full
/// bit-identity check against a cold rebuild of the updated graph.
void churn(const std::vector<test::GraphCase>& suite,
           ShortcutHeuristic heuristic, std::uint64_t seed) {
  PreprocessOptions opts;
  opts.rho = 8;
  opts.k = 2;
  opts.heuristic = heuristic;
  std::size_t split = 0;  // results with a non-empty shortcut segment
  for (const auto& c : suite) {
    std::mt19937 rng(seed);
    IncrementalPreprocessor inc(c.graph, opts);
    for (int batch = 0; batch < 3; ++batch) {
      const std::size_t count = 1 + static_cast<std::size_t>(batch) * 5;
      const auto updates = random_updates(inc.graph(), count, rng);
      const IncrementalUpdateStats stats = inc.apply(updates);
      EXPECT_LE(stats.dirty_balls, stats.total_balls);
      const PreprocessResult got = inc.result();
      const std::string label = c.name + " batch " + std::to_string(batch);
      expect_identical(got, preprocess(inc.graph(), opts), label);
      if (heuristic != ShortcutHeuristic::kNone) {
        EXPECT_EQ(got.graph.shortcut_starts().size(), c.graph.num_vertices())
            << label;
        split += has_shortcut_segment(got.graph) ? 1 : 0;
      }
    }
  }
  // The split is part of the compared graph: make sure the churn compared
  // some non-empty shortcut segments, so the equality above cannot pass
  // on two graphs without any.
  if (heuristic != ShortcutHeuristic::kNone) {
    EXPECT_GT(split, 0u);
  }
}

TEST(IncrementalPreprocessor, ChurnBitIdenticalKDP) {
  churn(test::weighted_suite(41), ShortcutHeuristic::kDP, 700);
}

TEST(IncrementalPreprocessor, ChurnBitIdenticalKGreedy) {
  // A shape subset keeps the cold-rebuild-per-batch cost in check.
  auto suite = test::weighted_suite(42);
  suite.resize(4);
  churn(suite, ShortcutHeuristic::kGreedy, 701);
}

TEST(IncrementalPreprocessor, ChurnBitIdenticalKNone) {
  // kNone still maintains radii incrementally; result().graph stays the
  // base graph.
  auto suite = test::weighted_suite(43);
  suite.resize(4);
  churn(suite, ShortcutHeuristic::kNone, 702);
}

TEST(IncrementalPreprocessor, ChurnBitIdenticalAdversarial) {
  // Directed/multigraph/self-loop inputs. Shortcuts need a symmetric graph
  // (merge_edges adds every shortcut both ways), so the symmetric multigraph
  // churns under kDP and the directed members under kNone, radii only;
  // kDP rejects those on both paths. (Serving equivalence is covered by
  // the raw-engine dynamic tests.)
  std::vector<test::GraphCase> symmetric, directed;
  for (auto& c : test::adversarial_suite(44)) {
    (is_symmetric(c.graph) ? symmetric : directed).push_back(std::move(c));
  }
  ASSERT_FALSE(symmetric.empty());
  ASSERT_FALSE(directed.empty());
  churn(symmetric, ShortcutHeuristic::kDP, 703);
  churn(directed, ShortcutHeuristic::kNone, 703);
  PreprocessOptions dp;
  dp.rho = 8;
  dp.k = 2;
  for (const auto& c : directed) {
    EXPECT_THROW(IncrementalPreprocessor(c.graph, dp), std::invalid_argument)
        << c.name;
    EXPECT_THROW(preprocess(c.graph, dp), std::invalid_argument) << c.name;
  }
}

TEST(IncrementalPreprocessor, ChurnBitIdenticalAcrossWorkerCounts) {
  WorkerGuard guard;
  auto suite = test::weighted_suite(45);
  suite.resize(3);
  for (const int workers : {1, 3, 8}) {
    set_num_workers(workers);
    churn(suite, ShortcutHeuristic::kDP, 704);
  }
}

TEST(IncrementalPreprocessor, NoOpBatchDirtiesNothing) {
  const Graph g = test::weighted_suite(46)[2].graph;
  PreprocessOptions opts;
  opts.rho = 8;
  opts.k = 2;
  IncrementalPreprocessor inc(g, opts);
  // Re-state an existing weight: zero arcs change, zero balls recompute.
  Vertex u = 0;
  while (g.first_arc(u) == g.last_arc(u)) ++u;
  const EdgeId e = g.first_arc(u);
  const IncrementalUpdateStats stats =
      inc.apply({WeightUpdate{u, g.arc_target(e), g.arc_weight(e)}});
  EXPECT_EQ(stats.updated_arcs, 0u);
  EXPECT_EQ(stats.dirty_balls, 0u);
  expect_identical(inc.result(), preprocess(g, opts), "no-op");
}

TEST(IncrementalPreprocessor, SmallBatchDirtiesASubset) {
  // On a sparse grid a single edge update must not dirty every ball —
  // the locality that makes incremental rebuilds worth having.
  const Graph g = test::weighted_suite(47)[0].graph;  // grid2d
  PreprocessOptions opts;
  opts.rho = 8;
  opts.k = 2;
  IncrementalPreprocessor inc(g, opts);
  std::mt19937 rng(55);
  const IncrementalUpdateStats stats =
      inc.apply(random_updates(g, 1, rng));
  EXPECT_GT(stats.dirty_balls, 0u);
  EXPECT_LT(stats.dirty_balls, stats.total_balls / 2);
}

TEST(IncrementalPreprocessor, CountDirtyPredictsApplyWithoutMutating) {
  const Graph g = test::weighted_suite(48)[0].graph;
  PreprocessOptions opts;
  opts.rho = 8;
  opts.k = 2;
  IncrementalPreprocessor inc(g, opts);
  std::mt19937 rng(77);
  const std::vector<WeightUpdate> batch = random_updates(g, 3, rng);

  // Preview first: count_dirty must not change any state...
  const std::size_t predicted = inc.count_dirty(batch);
  EXPECT_TRUE(inc.graph() == g);
  // ...and it upper-bounds what apply() then actually recomputes (equal
  // when no update in the batch is a no-op).
  const IncrementalUpdateStats stats = inc.apply(batch);
  EXPECT_GE(predicted, stats.dirty_balls);
  EXPECT_GT(predicted, 0u);

  // A no-op batch still counts its balls (documented upper bound): the
  // preview has no arc-weight lookup, only the membership index.
  Vertex u = 0;
  while (inc.graph().first_arc(u) == inc.graph().last_arc(u)) ++u;
  const EdgeId e = inc.graph().first_arc(u);
  const std::vector<WeightUpdate> noop = {WeightUpdate{
      u, inc.graph().arc_target(e), inc.graph().arc_weight(e)}};
  EXPECT_GT(inc.count_dirty(noop), 0u);
  EXPECT_EQ(inc.apply(noop).dirty_balls, 0u);

  // Out-of-range vertices are simply not in any ball.
  EXPECT_EQ(inc.count_dirty({WeightUpdate{
                static_cast<Vertex>(inc.graph().num_vertices() + 7),
                static_cast<Vertex>(inc.graph().num_vertices() + 8), 1}}),
            0u);
}

TEST(IncrementalPreprocessor, ExceptionLeavesStateUsable) {
  const Graph g = test::weighted_suite(48)[1].graph;
  PreprocessOptions opts;
  opts.rho = 8;
  opts.k = 2;
  IncrementalPreprocessor inc(g, opts);
  const PreprocessResult before = inc.result();
  // Bad update: throws out of apply_weight_updates before any commit.
  EXPECT_THROW(inc.apply({WeightUpdate{0, 0, 5}}), std::invalid_argument);
  expect_identical(inc.result(), before, "after failed apply");
  EXPECT_TRUE(inc.graph() == g);
}

}  // namespace
}  // namespace rs
