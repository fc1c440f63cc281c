// The hot-source result cache contract (serve/result_cache.hpp):
//
//  * hit/miss life cycle — a first cache-eligible serve computes and
//    publishes one full-distance row, the second is answered from it with
//    BIT-IDENTICAL targets and stats, and an SsspEngine::next_epoch()
//    successor bumps the epoch so every old row silently stops matching
//    (then purge_stale reclaims it);
//  * single-flight — concurrent misses on one key produce exactly ONE
//    owner computation; waiters share the owner's row (same object), and
//    an owner failure wakes them with the exception instead of a row;
//  * LRU eviction is exact — with shards=1, the evicted key is precisely
//    the least recently USED one (lookups refresh recency), never an
//    in-flight entry;
//  * clear() only drops ready rows — a key that is in flight keeps its
//    waiters' future alive across a clear().
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <stdexcept>
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
using serve::cache_eligible;
using serve::cached_serve;
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
RowPtr dummy_row(Vertex source) {
  auto row = std::make_shared<CachedRow>();
  row->source = source;
  row->graph_epoch = 1;
  row->dist = {0, 1, 2};
  return row;
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
  cached_serve(engine, cache, req, ctx, first);  // owner: computes the row
  EXPECT_FALSE(first.served_from_cache);
  EXPECT_EQ(first.graph_epoch, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);

  QueryResponse second;
  cached_serve(engine, cache, req, ctx, second);  // hit: projected from it
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
  cached_serve(next, cache, req, ctx, after);
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
  EXPECT_NE(cache.lookup(key_for(next, req)), nullptr);
}

TEST(ResultCache, SingleFlightRawProtocol) {
  ResultCache cache;
  const CacheKey key{7, 1};

  RowPtr row;
  std::shared_future<RowPtr> pending;
  ASSERT_EQ(cache.acquire(key, row, pending), CacheAcquire::kOwner);

  std::vector<std::shared_future<RowPtr>> waiters;
  for (int i = 0; i < 8; ++i) {
    RowPtr r;
    std::shared_future<RowPtr> f;
    ASSERT_EQ(cache.acquire(key, r, f), CacheAcquire::kWaiter);
    waiters.push_back(std::move(f));
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().single_flight_waits, 8u);
  EXPECT_EQ(cache.size(), 0u);  // in-flight entries are not resident rows

  const RowPtr published = dummy_row(key.source);
  cache.fulfill(key, published);
  for (auto& f : waiters) {
    EXPECT_EQ(f.get(), published);  // the one computation, shared by all
  }

  RowPtr hit;
  std::shared_future<RowPtr> unused;
  EXPECT_EQ(cache.acquire(key, hit, unused), CacheAcquire::kHit);
  EXPECT_EQ(hit, published);
}

TEST(ResultCache, OwnerFailureWakesWaitersAndRetires) {
  ResultCache cache;
  const CacheKey key{3, 1};
  RowPtr row;
  std::shared_future<RowPtr> pending;
  ASSERT_EQ(cache.acquire(key, row, pending), CacheAcquire::kOwner);
  std::shared_future<RowPtr> waiter;
  ASSERT_EQ(cache.acquire(key, row, waiter), CacheAcquire::kWaiter);

  cache.fail(key, std::make_exception_ptr(std::runtime_error("boom")));
  EXPECT_THROW(waiter.get(), std::runtime_error);

  // The key is missable again: a fresh caller becomes the next owner.
  std::shared_future<RowPtr> pending2;
  EXPECT_EQ(cache.acquire(key, row, pending2), CacheAcquire::kOwner);
  cache.fulfill(key, dummy_row(key.source));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, ConcurrentMissesComputeOnce) {
  const SsspEngine engine = small_engine();
  ResultCache cache;

  QueryRequest req;
  req.source = 31;
  req.targets = {2, 77, 141};

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<QueryResponse> responses(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      QueryContext ctx;
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      cached_serve(engine, cache, req, ctx, responses[i]);
    });
  }
  for (std::thread& t : threads) t.join();

  // Exactly one engine computation; everyone else reused its row (as a
  // single-flight waiter or, if they arrived late, as a plain hit).
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits + cache.stats().single_flight_waits,
            static_cast<std::uint64_t>(kThreads - 1));
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
  const auto put = [&](Vertex s) {
    RowPtr row;
    std::shared_future<RowPtr> pending;
    ASSERT_EQ(cache.acquire(key(s), row, pending), CacheAcquire::kOwner);
    cache.fulfill(key(s), dummy_row(s));
  };

  for (Vertex s = 0; s < 4; ++s) put(s);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Refresh 0: the least recently used entry is now 1, not 0.
  EXPECT_NE(cache.lookup(key(0)), nullptr);
  put(4);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(key(1)), nullptr);  // the exact victim
  EXPECT_NE(cache.lookup(key(0)), nullptr);
  EXPECT_NE(cache.lookup(key(2)), nullptr);
  EXPECT_NE(cache.lookup(key(3)), nullptr);
  EXPECT_NE(cache.lookup(key(4)), nullptr);
}

TEST(ResultCache, ClearSparesInFlightEntries) {
  ResultCache cache;
  const CacheKey flying{1, 1};
  const CacheKey resident{2, 1};

  RowPtr row;
  std::shared_future<RowPtr> pending;
  ASSERT_EQ(cache.acquire(flying, row, pending), CacheAcquire::kOwner);
  ASSERT_EQ(cache.acquire(resident, row, pending), CacheAcquire::kOwner);
  cache.fulfill(resident, dummy_row(2));
  EXPECT_EQ(cache.size(), 1u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(resident), nullptr);

  // The in-flight key survived the clear: a new arrival still WAITS on the
  // original owner instead of starting a duplicate computation.
  std::shared_future<RowPtr> waiter;
  ASSERT_EQ(cache.acquire(flying, row, waiter), CacheAcquire::kWaiter);
  const RowPtr published = dummy_row(1);
  cache.fulfill(flying, published);
  EXPECT_EQ(waiter.get(), published);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace rs
