// Pins the zero-allocation contract of the warm serving hot path by
// REPLACING the global allocator with a counting one: after a warm-up
// query, a one-worker query through a reused QueryContext must perform
// ZERO heap allocations in the engine — for a full query, a targeted
// serve with paths, and a cached serve. (A team's OpenMP region is the
// runtime's to allocate; these pins cover the engine's own state.)
//
// The counter only ticks between arm()/disarm(), so gtest's own setup
// allocations don't pollute the measurement. Measured queries reuse the
// same source as the warm-up: state fully resets between queries, so an
// identical query touches exactly the warmed high-water marks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "baseline/dijkstra.hpp"
#include "core/engine.hpp"
#include "core/query_context.hpp"
#include "core/radii.hpp"
#include "core/radius_stepping.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "serve/result_cache.hpp"
#include "shortcut/ball_search.hpp"
#include "shortcut/preprocess_context.hpp"
#include "test_util.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void note_allocation() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked_malloc(std::size_t size) {
  note_allocation();
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Replaceable global allocation functions ([new.delete]): every form the
// toolchain may emit forwards to the counting malloc above.
void* operator new(std::size_t size) { return checked_malloc(size); }
void* operator new[](std::size_t size) { return checked_malloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rs {
namespace {

struct AllocationWindow {
  AllocationWindow() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationWindow() { g_counting.store(false, std::memory_order_relaxed); }
  std::uint64_t count() const {
    return g_allocations.load(std::memory_order_relaxed);
  }
};

Graph test_graph() {
  return assign_uniform_weights(gen::grid2d(20, 18), 5, 1, 100);
}

TEST(AllocFree, WarmSequentialFlatQueryAllocatesNothing) {
  const Graph g = test_graph();
  const auto radius = all_radii(g, 10);
  const test::WorkerGuard one(1);
  QueryContext ctx;
  std::vector<Dist> out;
  radius_stepping(g, 3, radius, ctx, out);  // warm-up
  ASSERT_EQ(out, dijkstra(g, 3));

  std::uint64_t measured;
  {
    AllocationWindow window;
    radius_stepping(g, 3, radius, ctx, out);
    measured = window.count();
  }
  EXPECT_EQ(measured, 0u);
}

TEST(AllocFree, WarmTargetedServeAllocatesNothing) {
  // The PR 5 acceptance pin: a warm targeted serve — request with targets
  // and paths, reused QueryContext AND reused QueryResponse — performs
  // ZERO heap allocations end to end. The response vectors are the only
  // O(|targets|) state and they keep their capacity across requests; the
  // target stamps, the early-exit bookkeeping, the per-target reads, and
  // the transpose-walk path expansion all run out of warmed storage.
  const Graph g = test_graph();
  PreprocessOptions opts;
  opts.rho = 10;
  opts.k = 2;
  const SsspEngine engine(g, opts);

  QueryRequest req;
  req.source = 3;
  req.targets = {37, 220, 338};
  req.want_paths = true;

  const test::WorkerGuard one(1);
  QueryContext ctx;
  QueryResponse resp;
  engine.serve(req, ctx, resp);  // warm-up (also builds the transpose)
  const QueryResponse full = engine.serve(test::full_request(3));
  for (const TargetResult& tr : resp.targets) {
    ASSERT_EQ(tr.dist, full.dist[tr.target]);
  }

  std::uint64_t measured;
  {
    AllocationWindow window;
    engine.serve(req, ctx, resp);
    measured = window.count();
  }
  EXPECT_EQ(measured, 0u);
  ASSERT_EQ(resp.targets.size(), req.targets.size());
  for (const TargetResult& tr : resp.targets) {
    ASSERT_EQ(tr.dist, full.dist[tr.target]);  // still exact when warm
    ASSERT_EQ(tr.path.back(), tr.target);
  }
}

TEST(AllocFree, WarmOneTargetServeAllocatesNothing) {
  // A one-target serve runs two searches that meet on the calling thread,
  // at one worker and at the default worker count alike. The backward
  // search is built by the first such request; after that a warm serve
  // allocates nothing, with or without a path (both closure walks write
  // into the response's own path buffer).
  const Graph g = test_graph();
  PreprocessOptions opts;
  opts.rho = 10;
  opts.k = 2;
  const SsspEngine engine(g, opts);
  const QueryResponse full = engine.serve(test::full_request(3));

  for (const bool one_worker : {true, false}) {
    for (const bool paths : {false, true}) {
      QueryRequest req;
      req.source = 3;
      req.targets = {338};
      req.want_paths = paths;

      std::optional<test::WorkerGuard> one;
      if (one_worker) one.emplace(1);
      QueryContext ctx;
      QueryResponse resp;
      engine.serve(req, ctx, resp);  // warm-up (builds the backward search)
      ASSERT_EQ(resp.targets[0].dist, full.dist[338]);

      std::uint64_t measured;
      {
        AllocationWindow window;
        engine.serve(req, ctx, resp);
        measured = window.count();
      }
      EXPECT_EQ(measured, 0u)
          << "one_worker=" << one_worker << " want_paths=" << paths;
      ASSERT_EQ(resp.targets.size(), 1u);
      EXPECT_EQ(resp.targets[0].dist, full.dist[338]);  // still exact
      EXPECT_TRUE(resp.stats.early_exit);  // the searches met
      if (paths) {
        ASSERT_GE(resp.targets[0].path.size(), 2u);
        EXPECT_EQ(resp.targets[0].path.front(), 3u);
        EXPECT_EQ(resp.targets[0].path.back(), 338u);
      }
    }
  }
}

TEST(AllocFree, WarmCachedTargetedServeAllocatesNothing) {
  // The PR 7 acceptance pin: a warm CACHED targeted serve — the row
  // resident, the response reused — performs ZERO heap allocations. This
  // is the server's submit-time hit path: acquire is a shard-map find
  // plus an LRU list splice, and answer_from_row projects the targets
  // into the response's existing capacity.
  const Graph g = test_graph();
  PreprocessOptions opts;
  opts.rho = 10;
  opts.k = 2;
  const SsspEngine engine(g, opts);
  serve::ResultCache cache;

  QueryRequest req;
  req.source = 3;
  req.targets = {37, 220, 338};

  const test::WorkerGuard one(1);
  // Fill the key once, as the server's batcher does for a first miss.
  const QueryResponse full = engine.serve(test::full_request(3));
  serve::RowPtr row;
  ASSERT_EQ(cache.acquire(serve::key_for(engine, req), row),
            serve::CacheAcquire::kFill);
  auto filled = std::make_shared<serve::CachedRow>();
  filled->source = req.source;
  filled->graph_epoch = full.graph_epoch;
  filled->dist = full.dist;
  filled->stats = full.stats;
  cache.fulfill(serve::key_for(engine, req), filled);

  QueryResponse resp;
  ASSERT_EQ(cache.acquire(serve::key_for(engine, req), row),
            serve::CacheAcquire::kHit);
  serve::answer_from_row(req, *row, resp);  // warms the response
  ASSERT_TRUE(resp.served_from_cache);

  std::uint64_t measured;
  {
    AllocationWindow window;
    if (cache.acquire(serve::key_for(engine, req), row) ==
        serve::CacheAcquire::kHit) {
      serve::answer_from_row(req, *row, resp);
    }
    measured = window.count();
  }
  EXPECT_EQ(measured, 0u);
  EXPECT_EQ(cache.stats().hits, 2u);

  ASSERT_EQ(resp.targets.size(), req.targets.size());
  for (const TargetResult& tr : resp.targets) {
    ASSERT_EQ(tr.dist, full.dist[tr.target]);  // still exact when warm
  }
}

TEST(AllocFree, WarmPreprocessContextBallLoopAllocatesNothing) {
  // The acceptance pin for the preprocessing pipeline: with a warm
  // PreprocessContext, the full per-ball inner loop of preprocess() — ball
  // search, then append_shortcuts (shortcut selection and the staging
  // append) — performs ZERO heap allocations. The first pass grows every
  // buffer (ball vertex list, tree CSR, DP tables, stamped maps, staging)
  // to its high-water mark; the second identical pass must run entirely
  // out of that capacity.
  const Graph g = test_graph().with_weight_sorted_adjacency();
  const Vertex n = g.num_vertices();
  PreprocessContext ctx(n);
  PreprocessOptions options;
  options.rho = 12;
  options.k = 2;
  options.heuristic = ShortcutHeuristic::kDP;
  const BallOptions opts{options.rho, 0, options.settle_ties};
  bool appended = true;
  const auto pass = [&] {
    ctx.staging().clear();
    for (Vertex s = 0; s < n; ++s) {
      appended &=
          ctx.append_shortcuts(ctx.ball(g, s, opts), options, ctx.staging());
    }
  };
  pass();  // warm-up
  const std::size_t staged = ctx.staging().size();
  EXPECT_GT(staged, 0u);  // the loop actually selects shortcuts

  std::uint64_t measured;
  {
    AllocationWindow window;
    pass();
    measured = window.count();
  }
  EXPECT_EQ(measured, 0u);
  EXPECT_TRUE(appended);
  EXPECT_EQ(ctx.staging().size(), staged);
}

TEST(AllocFree, CountingAllocatorIsLive) {
  // Sanity check that the instrumentation actually observes allocations —
  // otherwise the zero-assertions above would pass vacuously.
  std::uint64_t measured;
  {
    AllocationWindow window;
    std::vector<int>* v = new std::vector<int>(100);
    delete v;
    measured = window.count();
  }
  EXPECT_GT(measured, 0u);
}

}  // namespace
}  // namespace rs
