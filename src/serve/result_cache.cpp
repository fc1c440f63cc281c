#include "serve/result_cache.hpp"

#include <utility>

namespace rs::serve {

ResultCache::ResultCache(ResultCacheOptions opts)
    : capacity_per_shard_(opts.capacity_per_shard < 1
                              ? 1
                              : opts.capacity_per_shard),
      shards_(opts.shards < 1 ? 1 : opts.shards) {}

CacheAcquire ResultCache::acquire(const CacheKey& key, RowPtr& row) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    // Miss: install the entry being filled; the caller fills it.
    shard.map.emplace(key, Entry{});
    misses_.fetch_add(1, std::memory_order_relaxed);
    return CacheAcquire::kFill;
  }
  Entry& e = it->second;
  if (e.row == nullptr) {
    busy_.fetch_add(1, std::memory_order_relaxed);
    return CacheAcquire::kBusy;
  }
  // Ready: refresh recency with a splice (allocation-free).
  shard.lru.splice(shard.lru.begin(), shard.lru, e.lru_pos);
  row = e.row;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return CacheAcquire::kHit;
}

void ResultCache::fulfill(const CacheKey& key, RowPtr row) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  // Abandoned, purged, or already published: nothing to fill.
  if (it == shard.map.end() || it->second.row != nullptr) return;
  Entry& e = it->second;
  e.row = std::move(row);
  shard.lru.push_front(key);
  e.lru_pos = shard.lru.begin();
  while (shard.lru.size() > capacity_per_shard_) {
    shard.map.erase(shard.lru.back());  // readers keep the row alive
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ResultCache::abandon(const CacheKey& key) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it != shard.map.end() && it->second.row == nullptr) shard.map.erase(it);
}

void ResultCache::purge_stale(std::uint64_t min_epoch) {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      if (it->first.graph_epoch < min_epoch) {
        if (it->second.row != nullptr) shard.lru.erase(it->second.lru_pos);
        it = shard.map.erase(it);
      } else {
        ++it;
      }
    }
  }
}

ResultCacheStats ResultCache::stats() const {
  ResultCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.single_flight_waits = busy_.load(std::memory_order_relaxed);
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

}  // namespace rs::serve
