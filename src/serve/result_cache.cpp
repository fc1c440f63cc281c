#include "serve/result_cache.hpp"

#include <utility>

namespace rs::serve {

ResultCache::ResultCache(ResultCacheOptions opts)
    : capacity_per_shard_(opts.capacity_per_shard < 1
                              ? 1
                              : opts.capacity_per_shard),
      shards_(opts.shards < 1 ? 1 : opts.shards) {}

CacheAcquire ResultCache::acquire(const CacheKey& key, RowPtr& row,
                                  std::shared_future<RowPtr>& pending) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    Entry& e = it->second;
    if (e.row != nullptr) {
      // Ready: refresh recency with a splice (allocation-free).
      shard.lru.splice(shard.lru.begin(), shard.lru, e.lru_pos);
      row = e.row;
      hits_.fetch_add(1, std::memory_order_relaxed);
      return CacheAcquire::kHit;
    }
    // In flight: join the owner's computation.
    pending = e.future;
    waits_.fetch_add(1, std::memory_order_relaxed);
    return CacheAcquire::kWaiter;
  }
  // Miss: install the in-flight entry; the caller is now the owner.
  Entry e;
  e.promise = std::make_shared<std::promise<RowPtr>>();
  e.future = e.promise->get_future().share();
  shard.map.emplace(key, std::move(e));
  misses_.fetch_add(1, std::memory_order_relaxed);
  return CacheAcquire::kOwner;
}

void ResultCache::fulfill(const CacheKey& key, RowPtr row) {
  std::shared_ptr<std::promise<RowPtr>> promise;
  {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      // The entry vanished (possible only if the key was never acquired —
      // e.g. a warm-up publish): install directly as ready.
      Entry e;
      shard.lru.push_front(key);
      e.row = row;
      e.lru_pos = shard.lru.begin();
      shard.map.emplace(key, std::move(e));
    } else if (it->second.row != nullptr) {
      return;  // double fulfill: first publication wins
    } else {
      Entry& e = it->second;
      promise = std::move(e.promise);
      e.promise = nullptr;
      e.future = {};
      e.row = row;
      shard.lru.push_front(key);
      e.lru_pos = shard.lru.begin();
    }
    while (shard.lru.size() > capacity_per_shard_) {
      shard.map.erase(shard.lru.back());  // readers keep the row alive
      shard.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Wake waiters outside the shard lock.
  if (promise != nullptr) promise->set_value(std::move(row));
}

void ResultCache::fail(const CacheKey& key, std::exception_ptr err) {
  std::shared_ptr<std::promise<RowPtr>> promise;
  {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it == shard.map.end() || it->second.row != nullptr) return;
    promise = std::move(it->second.promise);
    shard.map.erase(it);
  }
  if (promise != nullptr) promise->set_exception(err);
}

RowPtr ResultCache::lookup(const CacheKey& key) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end() || it->second.row == nullptr) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
  return it->second.row;
}

void ResultCache::purge_stale(std::uint64_t min_epoch) {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->graph_epoch < min_epoch) {
        shard.map.erase(*it);
        it = shard.lru.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void ResultCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const CacheKey& key : shard.lru) shard.map.erase(key);
    shard.lru.clear();
  }
}

ResultCacheStats ResultCache::stats() const {
  ResultCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.single_flight_waits = waits_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

std::size_t ResultCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.lru.size();
  }
  return total;
}

void answer_from_row(const QueryRequest& req, const CachedRow& row,
                     QueryResponse& resp) {
  resp.source = req.source;
  resp.stats = row.stats;
  resp.graph_epoch = row.graph_epoch;
  resp.served_from_cache = true;
  resp.dist.clear();
  if (req.want_full_distances) {
    resp.dist = row.dist;
  }
  resp.targets.resize(req.targets.size());
  for (std::size_t i = 0; i < req.targets.size(); ++i) {
    TargetResult& tr = resp.targets[i];
    tr.target = req.targets[i];
    tr.dist = row.dist[tr.target];
    tr.path.clear();
  }
}

void cached_serve(const SsspEngine& engine, ResultCache& cache,
                  const QueryRequest& req, QueryContext& ctx,
                  QueryResponse& resp) {
  if (!cache_eligible(req)) {
    engine.serve(req, ctx, resp);
    return;
  }
  const CacheKey key = key_for(engine, req);
  RowPtr row;
  std::shared_future<RowPtr> pending;
  switch (cache.acquire(key, row, pending)) {
    case CacheAcquire::kHit:
      answer_from_row(req, *row, resp);
      return;
    case CacheAcquire::kWaiter:
      row = pending.get();  // rethrows the owner's failure
      answer_from_row(req, *row, resp);
      return;
    case CacheAcquire::kOwner:
      break;
  }
  try {
    QueryRequest full;
    full.source = req.source;
    full.want_full_distances = true;
    QueryResponse computed = engine.serve(full, ctx);
    auto owned = std::make_shared<CachedRow>();
    owned->source = req.source;
    owned->graph_epoch = computed.graph_epoch;
    owned->dist = std::move(computed.dist);
    owned->stats = computed.stats;
    row = std::move(owned);
  } catch (...) {
    cache.fail(key, std::current_exception());
    throw;
  }
  cache.fulfill(key, row);
  answer_from_row(req, *row, resp);
  // The owner computed rather than read; report it faithfully.
  resp.served_from_cache = false;
}

}  // namespace rs::serve
