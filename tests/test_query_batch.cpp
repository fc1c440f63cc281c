// Batch-serving equivalence suite: serve_batch's two-level scheduler and
// the reusable QueryContext must be invisible to callers — batched results
// bit-identical to sequential per-source queries, warm contexts identical
// to fresh ones, one-worker runs identical to a team's —
// over the weighted suite AND the adversarial (directed / self-loop /
// multigraph) palette, at several worker counts.
#include <gtest/gtest.h>

#include "baseline/bellman_ford.hpp"
#include "baseline/bfs.hpp"
#include "baseline/delta_stepping.hpp"
#include "baseline/dijkstra.hpp"
#include "core/engine.hpp"
#include "core/query_context.hpp"
#include "core/radii.hpp"
#include "core/radius_stepping.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "parallel/context_pool.hpp"
#include "parallel/primitives.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

using test::WorkerGuard;

/// Engine wrapper that skips preprocessing (constant radii, no shortcuts)
/// so directed/multigraph inputs stay exactly as built.
SsspEngine raw_engine(const Graph& g) {
  PreprocessResult pre;
  pre.graph = g;
  pre.radius = constant_radii(g.num_vertices(), 25);
  pre.options.heuristic = ShortcutHeuristic::kNone;
  return SsspEngine(g, std::move(pre));
}

std::vector<Vertex> spread_sources(const Graph& g, std::size_t count) {
  const Vertex n = g.num_vertices();
  std::vector<Vertex> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(static_cast<Vertex>((i * n) / count));
  }
  return out;
}

TEST(QueryBatch, MatchesSequentialQueriesOnWeightedSuite) {
  WorkerGuard guard;
  for (const auto& [name, g] : test::weighted_suite(11)) {
    PreprocessOptions opts;
    opts.rho = 10;
    opts.k = 2;
    const SsspEngine engine(g, opts);
    const std::vector<Vertex> sources = spread_sources(g, 8);

    std::vector<QueryResponse> ref;
    for (const Vertex s : sources) {
      ref.push_back(engine.serve(test::full_request(s)));
    }

    // 1 worker: one-worker batch loop; 3 workers: batch narrower than
    // 8 sources -> source-parallel; 8+: dynamic schedule with idle workers.
    for (const int nw : {1, 3, 8}) {
      set_num_workers(nw);
      const auto batch = engine.serve_batch(test::full_requests(sources));
      ASSERT_EQ(batch.size(), sources.size());
      for (std::size_t i = 0; i < sources.size(); ++i) {
        EXPECT_EQ(batch[i].source, sources[i]);
        EXPECT_EQ(batch[i].dist, ref[i].dist)
            << name << " nw=" << nw << " source " << sources[i];
        // The step sequence is schedule-independent (WriteMin), so stats
        // that count set sizes must match the fresh sequential query too.
        EXPECT_EQ(batch[i].stats.steps, ref[i].stats.steps) << name;
        EXPECT_EQ(batch[i].stats.settled, ref[i].stats.settled) << name;
      }
    }
  }
}

TEST(QueryBatch, MatchesSequentialQueriesOnAdversarialSuite) {
  WorkerGuard guard;
  for (const auto& [name, g] : test::adversarial_suite(5)) {
    const SsspEngine engine = raw_engine(g);
    const std::vector<Vertex> sources = spread_sources(g, 6);
    std::vector<QueryResponse> ref;
    for (const Vertex s : sources) {
      ref.push_back(engine.serve(test::full_request(s)));
    }
    for (const int nw : {1, 4}) {
      set_num_workers(nw);
      const auto batch = engine.serve_batch(test::full_requests(sources));
      for (std::size_t i = 0; i < sources.size(); ++i) {
        EXPECT_EQ(batch[i].dist, ref[i].dist) << name << " nw=" << nw;
        EXPECT_EQ(batch[i].dist, dijkstra(g, sources[i])) << name;
      }
    }
  }
}

TEST(QueryBatch, MatchesSequentialQueriesOnUnitGrid) {
  WorkerGuard guard;
  const Graph g = gen::grid2d(18, 15);
  PreprocessOptions opts;
  opts.rho = 8;
  opts.heuristic = ShortcutHeuristic::kNone;
  const SsspEngine engine(g, opts);
  const std::vector<Vertex> sources = spread_sources(g, 6);
  std::vector<QueryResponse> ref;
  for (const Vertex s : sources) {
    ref.push_back(engine.serve(test::full_request(s)));
  }
  for (const int nw : {1, 4}) {
    set_num_workers(nw);
    const auto batch = engine.serve_batch(test::full_requests(sources));
    for (std::size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(batch[i].dist, ref[i].dist) << "nw=" << nw;
      EXPECT_EQ(batch[i].stats.steps, ref[i].stats.steps);
    }
  }
}

TEST(QueryBatch, EmptyBatchAndValidation) {
  const Graph g = assign_uniform_weights(gen::grid2d(6, 6), 1, 1, 9);
  PreprocessOptions opts;
  opts.rho = 6;
  const SsspEngine engine(g, opts);
  EXPECT_TRUE(engine.serve_batch(test::full_requests({})).empty());
  // Bad sources throw up front, before any parallel work starts.
  EXPECT_THROW(engine.serve_batch(test::full_requests({0, g.num_vertices()})),
               std::invalid_argument);
}

TEST(QueryContext, ReuseMatchesFreshContexts) {
  const auto suite = test::weighted_suite(23);
  const auto& g = suite[0].graph;
  PreprocessOptions opts;
  opts.rho = 12;
  opts.k = 2;
  const SsspEngine engine(g, opts);

  // Two queries through ONE warm context == two fresh-context queries.
  const QueryRequest a = test::full_request(0);
  const QueryRequest b = test::full_request(g.num_vertices() / 2);
  QueryContext ctx;
  const auto warm_a = engine.serve(a, ctx);
  const auto warm_b = engine.serve(b, ctx);
  EXPECT_EQ(warm_a.dist, engine.serve(a).dist);
  EXPECT_EQ(warm_b.dist, engine.serve(b).dist);
  // Re-querying the first source through the used context still matches.
  EXPECT_EQ(engine.serve(a, ctx).dist, warm_a.dist);
}

TEST(QueryContext, ReuseAcrossGraphsOfDifferentSizes) {
  QueryContext ctx;
  for (const auto& [name, g] : test::weighted_suite(31)) {
    const auto radius = constant_radii(g.num_vertices(), 40);
    std::vector<Dist> got;
    radius_stepping(g, 0, radius, ctx, got);
    EXPECT_EQ(got, dijkstra(g, 0)) << name;
  }
  // And shrink back to a tiny graph after the big ones.
  const Graph tiny = assign_uniform_weights(gen::chain(5), 2, 1, 4);
  std::vector<Dist> got;
  radius_stepping(tiny, 0, constant_radii(5, 3), ctx, got);
  EXPECT_EQ(got, dijkstra(tiny, 0));
}

TEST(QueryContext, SequentialTwinMatchesParallelEngine) {
  WorkerGuard guard;
  // One warm parallel context serves every graph at every worker count,
  // so its per-worker state grows (2 -> 3 -> 8) and shrinks (8 -> 2 at
  // the next graph) between queries.
  QueryContext par_ctx;
  for (const auto& [name, g] : test::weighted_suite(17)) {
    const auto radius = all_radii(g, 8);
    std::vector<Dist> seq;
    RunStats seq_stats;
    {
      const WorkerGuard one(1);
      QueryContext ctx;
      radius_stepping(g, 1, radius, ctx, seq, &seq_stats);
    }
    EXPECT_GE(seq_stats.substeps, seq_stats.steps) << name;
    for (const int nw : {2, 3, 8}) {
      set_num_workers(nw);
      std::vector<Dist> par;
      RunStats par_stats;
      radius_stepping(g, 1, radius, par_ctx, par, &par_stats);
      EXPECT_EQ(seq, par) << name << " nw=" << nw;
      // Steps, settled and touched counts are schedule-independent;
      // substep counts are not (chaotic relaxation converges at an
      // order-dependent rate), so only the k+2-style bound relation is
      // comparable across modes.
      EXPECT_EQ(seq_stats.steps, par_stats.steps) << name << " nw=" << nw;
      EXPECT_EQ(seq_stats.settled, par_stats.settled) << name << " nw=" << nw;
      EXPECT_EQ(seq_stats.touched, par_stats.touched) << name << " nw=" << nw;
      EXPECT_GE(par_stats.substeps, par_stats.steps) << name << " nw=" << nw;
    }
  }
}

TEST(QueryContext, SequentialUnweightedTwinMatches) {
  // Unit weights give wide distance-tie classes: one worker and a team of
  // four must agree on them, and both must equal BFS.
  WorkerGuard guard;
  set_num_workers(4);
  for (const auto& [name, g] : test::unweighted_suite(19)) {
    const auto radius = all_radii(g, 6);
    RunStats par_stats, seq_stats;
    const auto par = radius_stepping(g, 0, radius, &par_stats);
    std::vector<Dist> seq;
    {
      const WorkerGuard one(1);
      QueryContext ctx;
      radius_stepping(g, 0, radius, ctx, seq, &seq_stats);
    }
    EXPECT_EQ(seq, par) << name;
    EXPECT_EQ(seq, bfs(g, 0)) << name;
    EXPECT_EQ(seq_stats.steps, par_stats.steps) << name;
    EXPECT_EQ(seq_stats.settled, par_stats.settled) << name;
    EXPECT_EQ(seq_stats.touched, par_stats.touched) << name;
  }
}

/// Sum of the out-degrees of the vertices `dist` reaches.
EdgeId reachable_arcs(const Graph& g, const std::vector<Dist>& dist) {
  EdgeId arcs = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (dist[v] != kInfDist) arcs += g.degree(v);
  }
  return arcs;
}

TEST(RunStats, ZeroRadiiScanEachReachableArcOnce) {
  // r = 0 on positive weights: A_i is the frontier at the minimum
  // distance, and relaxing it only reaches farther vertices, so every
  // reached vertex but the source is active in exactly one substep (the
  // seed loop scans the source's arcs). On a connected graph that is
  // every arc once: edges_scanned == m.
  WorkerGuard guard;
  QueryContext par_ctx;
  for (const auto& [name, g] : test::weighted_suite(23)) {
    const std::vector<Dist> radius = dijkstra_radii(g.num_vertices());
    const std::vector<Dist> ref = dijkstra(g, 0);
    const EdgeId want = reachable_arcs(g, ref);
    if (std::count(ref.begin(), ref.end(), kInfDist) == 0) {
      EXPECT_EQ(want, g.num_edges()) << name;
    }
    std::vector<Dist> got;
    RunStats stats;
    {
      const WorkerGuard one(1);
      QueryContext seq_ctx;
      radius_stepping(g, 0, radius, seq_ctx, got, &stats);
    }
    EXPECT_EQ(got, ref) << name;
    EXPECT_EQ(stats.edges_scanned, want) << name << " sequential";
    for (const int nw : {2, 3, 8}) {
      set_num_workers(nw);
      radius_stepping(g, 0, radius, par_ctx, got, &stats);
      EXPECT_EQ(got, ref) << name << " nw=" << nw;
      EXPECT_EQ(stats.edges_scanned, want) << name << " nw=" << nw;
    }
  }
}

TEST(QueryContext, BaselinesReuseOneContext) {
  QueryContext ctx;
  for (const auto& [name, g] : test::weighted_suite(41)) {
    const Vertex n = g.num_vertices();
    for (const Vertex s : {Vertex{0}, static_cast<Vertex>(n - 1)}) {
      const auto ref = dijkstra(g, s);
      std::vector<Dist> got;
      dijkstra(g, s, ctx, got);
      EXPECT_EQ(got, ref) << name << " dijkstra src " << s;
      std::size_t rounds_fresh = 0, rounds_ctx = 0;
      const auto bf_ref = bellman_ford(g, s, &rounds_fresh);
      bellman_ford(g, s, ctx, got, &rounds_ctx);
      EXPECT_EQ(got, bf_ref) << name;
      EXPECT_EQ(rounds_ctx, rounds_fresh) << name;
      delta_stepping(g, s, ctx, got);
      EXPECT_EQ(got, ref) << name << " delta src " << s;
    }
  }
  for (const auto& [name, g] : test::unweighted_suite(43)) {
    std::size_t rounds_fresh = 0, rounds_ctx = 0;
    const auto ref = bfs(g, 2, &rounds_fresh);
    std::vector<Dist> got;
    bfs(g, 2, ctx, got, &rounds_ctx);
    EXPECT_EQ(got, ref) << name;
    EXPECT_EQ(rounds_ctx, rounds_fresh) << name;
  }
}

TEST(QueryContext, BaselinesExactOnAdversarialSuite) {
  const WorkerGuard one(1);
  QueryContext ctx;
  for (const auto& [name, g] : test::adversarial_suite(7)) {
    const auto ref = dijkstra(g, 1);
    std::vector<Dist> got;
    dijkstra(g, 1, ctx, got);
    EXPECT_EQ(got, ref) << name;
    bellman_ford(g, 1, ctx, got);
    EXPECT_EQ(got, ref) << name;
    delta_stepping(g, 1, ctx, got);
    EXPECT_EQ(got, ref) << name;
  }
}

TEST(WorkerPool, SlotsAreLazyAndStable) {
  WorkerPool<QueryContext> pool;
  EXPECT_EQ(pool.size(), 0u);
  pool.ensure(2);
  ASSERT_EQ(pool.size(), 2u);
  QueryContext* first = &pool.at(0);
  first->reserve(100);
  pool.ensure(5);
  EXPECT_EQ(pool.size(), 5u);
  // Growth must not move existing slots (workers hold references).
  EXPECT_EQ(&pool.at(0), first);
  EXPECT_EQ(pool.at(0).capacity(), 100u);
  pool.ensure(3);  // never shrinks
  EXPECT_EQ(pool.size(), 5u);
}

}  // namespace
}  // namespace rs
