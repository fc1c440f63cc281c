/// \file
/// ResultCache: sharded LRU cache of completed full-distance rows, filled
/// once per key.
///
/// Millions of clients concentrate their queries on few sources (hub
/// airports, trending accounts). Radius-Stepping makes ONE query fast;
/// the cache makes the Nth query from the same source O(|targets|): a
/// completed full-distance row is kept keyed by (source, graph_epoch),
/// and any later targeted request for that key is answered by projecting
/// the requested entries straight out of the row — no engine run, no O(n)
/// work, and (with a warm response) no heap allocation.
///
/// Keying rules:
///  * `source` — rows are per-source by construction.
///  * `graph_epoch` — SsspEngine::graph_epoch() at compute time. A graph
///    swap bumps the epoch, so every old row silently stops matching; the
///    stale entries are reclaimed by LRU pressure or purge_stale().
///
/// One fill per key: the first miss on a key FILLS it (computes the full
/// row, then fulfill() or abandon()). A miss that finds the fill still in
/// flight is BUSY: nothing waits on the fill, the caller computes its own
/// answer instead. So the cache never blocks a caller, and a forgotten
/// fill only costs later misses their row (they stay busy), never a hang.
///
/// Concurrency: keys hash onto independent shards, each a mutex + hash
/// map + intrusive LRU list of READY entries. A hit is a find + list
/// splice (allocation-free) under one shard lock. Entries being filled
/// live in the map but not in the LRU list: they never count against
/// capacity and are never evicted.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "core/request.hpp"
#include "core/stats.hpp"
#include "graph/types.hpp"

namespace rs::serve {

/// Sizing knobs for ResultCache.
struct ResultCacheOptions {
  /// Number of independent shards (rounded up to at least 1). More shards
  /// = less lock contention; capacity scales with the shard count.
  std::size_t shards = 8;
  /// Ready rows kept per shard (LRU eviction beyond it). Memory budget is
  /// roughly shards * capacity_per_shard * n * sizeof(Dist) when full.
  std::size_t capacity_per_shard = 64;
};

/// One completed full-distance row, immutable once published. Shared
/// ownership: an evicted row stays alive while any reader still holds it.
struct CachedRow {
  Vertex source = kNoVertex;      ///< The row's SSSP source.
  std::uint64_t graph_epoch = 0;  ///< Epoch the row was computed against.
  std::vector<Dist> dist;  ///< Full distance vector of the computing run.
  RunStats stats;          ///< The computing run's stats.
};
/// Shared handle to an immutable cached row.
using RowPtr = std::shared_ptr<const CachedRow>;

/// What a cached row is keyed by; see the file comment for the rules.
struct CacheKey {
  Vertex source = kNoVertex;      ///< Row source.
  std::uint64_t graph_epoch = 0;  ///< Preprocessing generation.

  /// Field-wise equality.
  bool operator==(const CacheKey& o) const {
    return source == o.source && graph_epoch == o.graph_epoch;
  }
};

/// Builds the cache key a request resolves to against `engine` right now.
inline CacheKey key_for(const SsspEngine& engine, const QueryRequest& req) {
  return CacheKey{req.source, engine.graph_epoch()};
}

/// True when a request can be answered from / admitted into the cache:
/// kTargets without paths (both the targeted projection and the full
/// vector come straight from the row). Path expansion and top-k extraction
/// need engine machinery, so those requests bypass the cache.
inline bool cache_eligible(const QueryRequest& req) {
  return req.kind == RequestKind::kTargets && !req.want_paths;
}

/// Monotonic counters; snapshot via ResultCache::stats().
struct ResultCacheStats {
  std::uint64_t hits = 0;    ///< Ready-row acquisitions (kHit).
  std::uint64_t misses = 0;  ///< Fills started (kFill).
  /// Busy misses (kBusy): the key was being filled, so the caller computed
  /// its own answer. perfbench and bench_loadgen report it by this name.
  std::uint64_t single_flight_waits = 0;
  std::uint64_t evictions = 0;  ///< LRU evictions of ready rows.

  /// hits / (hits + misses + busy misses); 0 before the first acquire.
  double hit_rate() const {
    const std::uint64_t total = hits + misses + single_flight_waits;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Outcome of ResultCache::acquire.
enum class CacheAcquire : std::uint8_t {
  kHit,   ///< `row` is the ready row.
  kFill,  ///< Caller computes the row, then fulfill() or abandon().
  kBusy,  ///< Another caller is filling the key; compute the answer alone.
};

/// The sharded LRU row cache, one fill per key (see the file comment).
class ResultCache {
 public:
  /// Builds an empty cache with the given sharding/capacity knobs.
  explicit ResultCache(ResultCacheOptions opts = {});

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Hit / fill / busy resolution for `key` (see CacheAcquire). On kHit,
  /// `row` is set; on kFill the caller owes a fulfill() or abandon() for
  /// this key.
  CacheAcquire acquire(const CacheKey& key, RowPtr& row);

  /// Publishes a fill's computed row as a ready LRU entry (evicting beyond
  /// capacity). Does nothing unless `key` is still being filled: an
  /// abandoned fill, or one finished after purge_stale() dropped its
  /// epoch, publishes nothing instead of parking a row no request can
  /// match.
  void fulfill(const CacheKey& key, RowPtr row);

  /// A fill's failure path: drops the entry being filled, so the next miss
  /// on `key` fills it again.
  void abandon(const CacheKey& key);

  /// Drops every entry with graph_epoch < min_epoch, ready or being
  /// filled — the reclamation hook SsspServer::swap_engine() runs (stale
  /// keys can never match again; this frees their memory early).
  void purge_stale(std::uint64_t min_epoch);

  /// Snapshot of the monotonic hit/miss/busy/eviction counters.
  ResultCacheStats stats() const;

  /// Ready rows currently resident (fills in flight excluded).
  std::size_t size() const;

 private:
  struct Entry {
    RowPtr row;                             // null while being filled
    std::list<CacheKey>::iterator lru_pos;  // valid iff ready
  };

  struct KeyHash {
    std::size_t operator()(const CacheKey& k) const {
      // splitmix64-style mixing over the two fields.
      std::uint64_t h =
          static_cast<std::uint64_t>(k.source) * 0x9e3779b97f4a7c15ull;
      h ^= k.graph_epoch * 0x94d049bb133111ebull;
      h ^= h >> 31;
      return static_cast<std::size_t>(h);
    }
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<CacheKey, Entry, KeyHash> map;
    std::list<CacheKey> lru;  // front == most recently used, ready only
  };

  Shard& shard_for(const CacheKey& key) {
    return shards_[KeyHash{}(key) % shards_.size()];
  }

  std::size_t capacity_per_shard_;
  std::vector<Shard> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> busy_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// Projects a cache-eligible request's answer out of `row` into `resp`,
/// reusing the response's capacity: a warm targeted projection performs no
/// heap allocation. Marks the response served_from_cache.
void answer_from_row(const QueryRequest& req, const CachedRow& row,
                     QueryResponse& resp);

}  // namespace rs::serve
