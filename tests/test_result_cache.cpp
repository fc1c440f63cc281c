// The hot-source result cache contract (serve/result_cache.hpp):
//
//  * hit/miss life cycle — a first cache-eligible serve fills one
//    full-distance row, the second is answered from it with BIT-IDENTICAL
//    targets and stats, and an SsspEngine::next_epoch() successor bumps
//    the epoch so every old row silently stops matching (then purge_stale
//    reclaims it);
//  * one fill per key — concurrent misses on one key give exactly ONE
//    fill; every other miss is busy and computes its own answer, and an
//    abandoned fill frees its key (a late fulfill publishes nothing);
//  * LRU eviction is exact — with shards=1, the evicted key is precisely
//    the least recently USED one (hits refresh recency), never a key
//    being filled;
//  * purge_stale drops stale fills too — a fill that finishes after its
//    epoch was purged leaves no row behind.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "serve/result_cache.hpp"
#include "shortcut/shortcut.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

using serve::CacheAcquire;
using serve::CachedRow;
using serve::CacheKey;
using serve::ResultCache;
using serve::ResultCacheOptions;
using serve::RowPtr;
using serve::answer_from_row;
using serve::cache_eligible;
using serve::key_for;

PreprocessOptions small_opts() {
  PreprocessOptions opts;
  opts.rho = 12;
  opts.k = 2;
  return opts;
}

SsspEngine small_engine(std::uint64_t seed = 7) {
  const Graph g =
      assign_uniform_weights(gen::road_network(12, 12, 3), seed, 1, 100);
  return SsspEngine(g, small_opts());
}

/// A ready row for raw-API tests; content does not matter there.
RowPtr dummy_row(Vertex source, std::uint64_t graph_epoch = 1) {
  auto row = std::make_shared<CachedRow>();
  row->source = source;
  row->graph_epoch = graph_epoch;
  row->dist = {0, 1, 2};
  return row;
}

/// The full-distance row of `source`, computed on `ctx`.
RowPtr compute_row(const SsspEngine& engine, Vertex source,
                   QueryContext& ctx) {
  QueryResponse full = engine.serve(test::full_request(source), ctx);
  auto row = std::make_shared<CachedRow>();
  row->source = source;
  row->graph_epoch = full.graph_epoch;
  row->dist = std::move(full.dist);
  row->stats = full.stats;
  return row;
}

/// One caller's cache protocol for a cache-eligible request: a hit is
/// projected from the row; a fill computes the full row, publishes it and
/// answers from it; a busy miss runs the request as it came.
void serve_cached(const SsspEngine& engine, ResultCache& cache,
                  const QueryRequest& req, QueryContext& ctx,
                  QueryResponse& resp) {
  const CacheKey key = key_for(engine, req);
  RowPtr row;
  switch (cache.acquire(key, row)) {
    case CacheAcquire::kHit:
      answer_from_row(req, *row, resp);
      return;
    case CacheAcquire::kBusy:
      engine.serve(req, ctx, resp);
      return;
    case CacheAcquire::kFill:
      row = compute_row(engine, req.source, ctx);
      cache.fulfill(key, row);
      answer_from_row(req, *row, resp);
      resp.served_from_cache = false;  // the fill computed
      return;
  }
}

TEST(ResultCache, Eligibility) {
  QueryRequest req;
  req.targets = {3};
  EXPECT_TRUE(cache_eligible(req));
  req.want_full_distances = true;  // full vector projects from the row too
  EXPECT_TRUE(cache_eligible(req));

  QueryRequest paths = req;
  paths.want_paths = true;  // path expansion needs the engine
  EXPECT_FALSE(cache_eligible(paths));

  QueryRequest topk;
  topk.kind = RequestKind::kTopK;
  topk.k = 4;
  EXPECT_FALSE(cache_eligible(topk));
}

TEST(ResultCache, HitIsBitIdenticalAndReplaceInvalidates) {
  const SsspEngine engine = small_engine();
  ResultCache cache;
  QueryContext ctx;

  QueryRequest req;
  req.source = 5;
  req.targets = {17, 90, 130};

  QueryResponse first;
  serve_cached(engine, cache, req, ctx, first);  // fill: computes the row
  EXPECT_FALSE(first.served_from_cache);
  EXPECT_EQ(first.graph_epoch, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);

  QueryResponse second;
  serve_cached(engine, cache, req, ctx, second);  // hit: projected from it
  EXPECT_TRUE(second.served_from_cache);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Cached == computed, bit for bit: same targets, distances, stats, epoch.
  ASSERT_EQ(second.targets.size(), first.targets.size());
  for (std::size_t i = 0; i < first.targets.size(); ++i) {
    EXPECT_EQ(second.targets[i].target, first.targets[i].target);
    EXPECT_EQ(second.targets[i].dist, first.targets[i].dist);
  }
  EXPECT_EQ(second.stats.steps, first.stats.steps);
  EXPECT_EQ(second.stats.relaxations, first.stats.relaxations);
  EXPECT_EQ(second.graph_epoch, first.graph_epoch);

  // And exact: the row really is the engine's answer.
  const QueryResponse full = engine.serve(test::full_request(req.source));
  for (const TargetResult& tr : second.targets) {
    EXPECT_EQ(tr.dist, full.dist[tr.target]);
  }

  // A graph swap bumps the epoch: the same request now resolves to a NEW
  // key, so the stale row cannot be served again — no explicit
  // invalidation call needed for correctness.
  const Graph g2 =
      assign_uniform_weights(gen::road_network(12, 12, 3), 99, 1, 50);
  const SsspEngine next =
      SsspEngine::next_epoch(engine, g2, preprocess(g2, small_opts()));
  ASSERT_EQ(next.graph_epoch(), 2u);

  QueryResponse after;
  serve_cached(next, cache, req, ctx, after);
  EXPECT_FALSE(after.served_from_cache);
  EXPECT_EQ(after.graph_epoch, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  const QueryResponse fresh = next.serve(test::full_request(req.source));
  for (const TargetResult& tr : after.targets) {
    EXPECT_EQ(tr.dist, fresh.dist[tr.target]);
  }

  // The epoch-1 row lingers (harmless) until eagerly reclaimed.
  EXPECT_EQ(cache.size(), 2u);
  cache.purge_stale(next.graph_epoch());
  EXPECT_EQ(cache.size(), 1u);
  RowPtr row;
  EXPECT_EQ(cache.acquire(key_for(next, req), row), CacheAcquire::kHit);
  EXPECT_EQ(row->graph_epoch, 2u);
}

TEST(ResultCache, OneFillPerKeyRawProtocol) {
  ResultCache cache;
  const CacheKey key{7, 1};

  RowPtr row;
  ASSERT_EQ(cache.acquire(key, row), CacheAcquire::kFill);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(cache.acquire(key, row), CacheAcquire::kBusy);
  }
  EXPECT_EQ(row, nullptr);  // neither outcome hands out a row
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().single_flight_waits, 8u);  // the busy misses
  EXPECT_EQ(cache.size(), 0u);  // a fill in flight is not a resident row

  const RowPtr published = dummy_row(key.source);
  cache.fulfill(key, published);
  EXPECT_EQ(cache.size(), 1u);
  cache.fulfill(key, dummy_row(key.source));  // the first publication wins

  ASSERT_EQ(cache.acquire(key, row), CacheAcquire::kHit);
  EXPECT_EQ(row, published);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, AbandonedFillFreesTheKey) {
  ResultCache cache;
  const CacheKey key{3, 1};
  RowPtr row;
  ASSERT_EQ(cache.acquire(key, row), CacheAcquire::kFill);
  ASSERT_EQ(cache.acquire(key, row), CacheAcquire::kBusy);

  cache.abandon(key);
  // A late fulfill after the abandon publishes nothing.
  cache.fulfill(key, dummy_row(key.source));
  EXPECT_EQ(cache.size(), 0u);

  // The key is missable again: the next miss fills it.
  ASSERT_EQ(cache.acquire(key, row), CacheAcquire::kFill);
  const RowPtr published = dummy_row(key.source);
  cache.fulfill(key, published);
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_EQ(cache.acquire(key, row), CacheAcquire::kHit);
  EXPECT_EQ(row, published);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().single_flight_waits, 1u);
}

TEST(ResultCache, ConcurrentMissesFillOnce) {
  const SsspEngine engine = small_engine();
  ResultCache cache;

  QueryRequest req;
  req.source = 31;
  req.targets = {2, 77, 141};

  // Every thread acquires before any fill can publish, so exactly one
  // fills and the other seven are busy; each busy thread then computes
  // its own answer while the fill runs.
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<int> acquired{0};
  std::atomic<int> fills{0};
  std::vector<QueryResponse> responses(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      QueryContext ctx;
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      const CacheKey key = key_for(engine, req);
      RowPtr row;
      const CacheAcquire got = cache.acquire(key, row);
      acquired.fetch_add(1);
      while (acquired.load() < kThreads) std::this_thread::yield();
      if (got == CacheAcquire::kFill) {
        fills.fetch_add(1);
        row = compute_row(engine, req.source, ctx);
        cache.fulfill(key, row);
        answer_from_row(req, *row, responses[i]);
      } else {
        ASSERT_EQ(got, CacheAcquire::kBusy);
        engine.serve(req, ctx, responses[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(fills.load(), 1);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().single_flight_waits,
            static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 1u);
  const QueryResponse full = engine.serve(test::full_request(req.source));
  for (const QueryResponse& resp : responses) {
    ASSERT_EQ(resp.targets.size(), req.targets.size());
    for (const TargetResult& tr : resp.targets) {
      EXPECT_EQ(tr.dist, full.dist[tr.target]);
    }
  }
}

TEST(ResultCache, LruEvictionIsExact) {
  ResultCacheOptions opts;
  opts.shards = 1;  // one shard == one global LRU order to assert against
  opts.capacity_per_shard = 4;
  ResultCache cache(opts);

  const auto key = [](Vertex s) {
    return CacheKey{s, 1};
  };
  RowPtr row;
  const auto put = [&](Vertex s) {
    ASSERT_EQ(cache.acquire(key(s), row), CacheAcquire::kFill);
    cache.fulfill(key(s), dummy_row(s));
  };

  for (Vertex s = 0; s < 4; ++s) put(s);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // A key being filled is outside the LRU order: it takes no capacity and
  // no eviction can reach it.
  ASSERT_EQ(cache.acquire(key(9), row), CacheAcquire::kFill);

  // Refresh 0: the least recently used row is now 1, not 0.
  ASSERT_EQ(cache.acquire(key(0), row), CacheAcquire::kHit);
  put(4);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.acquire(key(9), row), CacheAcquire::kBusy);  // still filling
  EXPECT_EQ(cache.acquire(key(0), row), CacheAcquire::kHit);
  EXPECT_EQ(cache.acquire(key(2), row), CacheAcquire::kHit);
  EXPECT_EQ(cache.acquire(key(3), row), CacheAcquire::kHit);
  EXPECT_EQ(cache.acquire(key(4), row), CacheAcquire::kHit);
  EXPECT_EQ(cache.acquire(key(1), row), CacheAcquire::kFill);  // the victim
  cache.abandon(key(1));

  // Publishing the fill evicts the least recently used row, 0.
  cache.fulfill(key(9), dummy_row(9));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.acquire(key(9), row), CacheAcquire::kHit);
  EXPECT_EQ(cache.acquire(key(0), row), CacheAcquire::kFill);
}

TEST(ResultCache, PurgeDropsStaleFillsAndTheirLatePublication) {
  ResultCache cache;
  const CacheKey stale_fill{1, 1};
  const CacheKey stale_row{2, 1};
  const CacheKey fresh{3, 2};

  RowPtr row;
  ASSERT_EQ(cache.acquire(stale_fill, row), CacheAcquire::kFill);
  ASSERT_EQ(cache.acquire(stale_row, row), CacheAcquire::kFill);
  cache.fulfill(stale_row, dummy_row(2));
  ASSERT_EQ(cache.acquire(fresh, row), CacheAcquire::kFill);
  cache.fulfill(fresh, dummy_row(3, 2));
  EXPECT_EQ(cache.size(), 2u);

  // A swap to epoch 2: every epoch-1 entry goes, the fill in flight too.
  cache.purge_stale(2);
  EXPECT_EQ(cache.size(), 1u);

  // The fill finishes after the purge. Its row could never match a
  // request again, so it is dropped instead of kept resident.
  cache.fulfill(stale_fill, dummy_row(1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.acquire(fresh, row), CacheAcquire::kHit);
  EXPECT_EQ(cache.acquire(stale_fill, row), CacheAcquire::kFill);
  EXPECT_EQ(cache.acquire(stale_row, row), CacheAcquire::kFill);
}

}  // namespace
}  // namespace rs
