// QueryContext: reusable per-query scratch state for the serving hot path.
//
// Every SSSP engine needs the same O(n) working set — a tentative-distance
// array, visited/claim flags, frontier lists, per-worker collection
// buckets, a priority queue. Allocating and zeroing that per query is what
// caps throughput in the multi-source regime the preprocessing cost is
// amortized over (§5.4). A QueryContext owns all of it once:
//
//  * buffers are sized on first use (warm-up) and never shrink, so a warm
//    context answers queries with zero heap allocations in the engine;
//  * the visited and claim arrays are generation-stamped — starting a new
//    query is a counter bump, not an O(n) memset;
//  * the distance array keeps the invariant "all entries kInfDist between
//    queries"; its reset is fused into the mandatory output copy, so no
//    separate O(n) initialization pass runs per query.
//
// A context is single-owner state: one query at a time, run by as many
// workers as num_workers() answers where the query starts. That is 1 on
// a one-worker setting and inside an active OpenMP region, such as the
// batch scheduler's one query per worker. A team keeps each worker's
// lists, frontier buckets and counters in its own cache-line-aligned
// WorkerScratch, so workers growing their lists never share a line.
//
// The radius-stepping working set of one search (distances, stamps,
// worker lists) is a Search. Every query runs search(); a bidirectional
// one-target run (radius_stepping_meet) adds backward(), which is built
// the first time such a run needs it.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "pq/binary_heap.hpp"
#include "pq/lazy_buckets.hpp"

namespace rs {

class QueryContext {
 public:
  /// One worker's share of an engine run (the whole run's lists when it
  /// runs on the calling thread). Aligned to a cache line so the vector
  /// headers and counters of different workers never share one.
  struct alignas(64) WorkerScratch {
    LazyBuckets frontier;         // frontier vertices this worker filed
    std::vector<Vertex> claimed;  // vertices claimed this substep
    std::vector<Vertex> active;   // next substep's active vertices
    std::vector<Vertex> touched;  // first-touch records
    std::size_t settled = 0;
    std::size_t relaxations = 0;
    std::size_t edges_scanned = 0;
    std::size_t targets_taken = 0;  // pending targets this worker un-stamped
    Dist pending_di = kInfDist;     // min delta + r over `frontier`
  };

  /// A worker's chunk cursor into its own active list during a parallel
  /// relax phase: the owner takes chunks through it first, then workers
  /// whose own lists are drained steal through it. Each cursor has a cache
  /// line of its own, away from the lists and counters its owner writes.
  struct alignas(64) ChunkCursor {
    std::atomic<std::size_t> next{0};
  };

  /// The working set of one radius-stepping search: tentative distances,
  /// the settled and claim stamps, and the per-worker lists and frontier
  /// buckets with their first-touch records.
  class Search {
   public:
    /// Grows every per-vertex buffer to cover `n` vertices. All
    /// allocation happens here (and in workers()); searches only ever
    /// read/write in [0, n).
    void reserve(Vertex n);

    /// Starts a search over `n` vertices: grows buffers if needed and
    /// bumps the settled generation (O(1)). The distance array is already
    /// all kInfDist — the last search's epilogue restored the invariant.
    void begin(Vertex n) {
      reserve(n);
      ++query_gen_;
    }

    // --- tentative distances -----------------------------------------------
    // Shared by parallel engines (CAS WriteMin) and sequential ones
    // (relaxed load/store, no CAS); a relaxed atomic costs the same as a
    // plain word on the sequential path.
    std::atomic<Dist>* dist() { return dist_.data(); }
    /// Current tentative distance of `v`: exact for every vertex settled
    /// by the end of a step, an upper bound elsewhere.
    Dist read_dist(Vertex v) const {
      return dist_[v].load(std::memory_order_relaxed);
    }

    // --- visited flags (one writer per vertex and phase) ------------------
    bool is_settled(Vertex v) const { return settled_gen_[v] == query_gen_; }
    void mark_settled(Vertex v) { settled_gen_[v] = query_gen_; }

    // --- claim flags (first claimer per epoch wins) -----------------------
    // An epoch is one dedup scope: a Bellman-Ford substep, a BFS level, a
    // Delta-stepping bucket. Bumping the epoch invalidates every claim in
    // O(1); the counter is monotone across queries so stale stamps can
    // never collide.
    void next_claim_epoch() { ++claim_epoch_; }
    /// Atomic claim for parallel relaxations: exactly one caller per
    /// epoch gets `true` for a given vertex.
    bool claim(Vertex v) {
      return claim_[v].exchange(claim_epoch_, std::memory_order_relaxed) !=
             claim_epoch_;
    }
    /// Same contract without the atomic RMW; only valid when one thread
    /// runs the search.
    bool claim_sequential(Vertex v) {
      if (claim_[v].load(std::memory_order_relaxed) == claim_epoch_) {
        return false;
      }
      claim_[v].store(claim_epoch_, std::memory_order_relaxed);
      return true;
    }

    // --- per-worker scratch and first-touch tracking ----------------------
    // The radius-stepping engine records each vertex whose tentative
    // distance leaves kInfDist — exactly once per search, at the moment of
    // the inf -> finite transition — into its worker's `touched` list.
    // reset_touched() then restores the all-infinite invariant by writing
    // kInfDist back over just those vertices: the epilogue of a targeted
    // serve costs O(touched), not O(n).
    //
    // Exactly-once discipline: a run on the calling thread records after
    // observing the old value == kInfDist; a team uses the write_min
    // overload that reports the pre-CAS value, whose kInfDist observation
    // has a unique winner. A missed record would leak a stale finite
    // distance into the next query, so the contract is pinned by tests at
    // one worker and at several.

    /// Ensures at least `count` WorkerScratch entries exist, with every
    /// list and bucket empty and every counter reset (capacities kept; the
    /// reset is O(LazyBuckets::kOpen) per entry, whatever n). Engines call
    /// this once per run, before any recording; worker `w` only ever
    /// writes entry `w`.
    std::vector<WorkerScratch>& workers(int count);
    /// Calls `f(v)` for every first-touch record of the last run (valid
    /// until reset_touched()/drop_touched()).
    template <typename F>
    void for_each_touched(F&& f) const {
      for (const WorkerScratch& w : workers_) {
        for (const Vertex v : w.touched) f(v);
      }
    }
    /// Vertices recorded since the workers were prepared (== finite
    /// entries in the distance array after an engine run).
    std::size_t touched_count() const;
    /// O(touched) epilogue: restores the all-infinite invariant by
    /// resetting exactly the recorded vertices, then clears the records.
    void reset_touched();
    /// Clears the records without touching the distances (for an epilogue
    /// that restored the invariant some other way).
    void drop_touched();

   private:
    Vertex n_ = 0;
    std::uint64_t query_gen_ = 0;
    std::uint64_t claim_epoch_ = 0;
    std::vector<std::atomic<Dist>> dist_;       // invariant: all kInfDist
    std::vector<std::uint64_t> settled_gen_;    // == query_gen_ => settled
    std::vector<std::atomic<std::uint64_t>> claim_;  // == claim_epoch_
    std::vector<WorkerScratch> workers_;
  };

  QueryContext() = default;
  explicit QueryContext(Vertex n) { reserve(n); }

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;
  QueryContext(QueryContext&&) = default;
  QueryContext& operator=(QueryContext&&) = default;

  /// Grows every per-vertex buffer of search() and the heap to cover `n`
  /// vertices. All allocation happens here; engines only ever read/write
  /// in [0, n). backward() grows only when a bidirectional run uses it.
  void reserve(Vertex n);

  /// Largest vertex count this context is warmed up for.
  Vertex capacity() const { return n_; }

  /// True when the engines should take per-phase clock readings into
  /// RunStats (relax/partition ns) for this run — set per
  /// request by SsspEngine::run_serve from QueryRequest::trace. Off by
  /// default: untraced runs take zero clock readings.
  bool trace_phases() const { return trace_phases_; }
  void set_trace_phases(bool trace) { trace_phases_ = trace; }

  /// The search every query runs (the forward one of a bidirectional run).
  Search& search() { return search_; }
  /// The backward search of a bidirectional one-target run. Empty until
  /// radius_stepping_meet first begins it, so other queries pay nothing.
  Search& backward() { return backward_; }

  /// Starts a query over `n` vertices on search(): grows buffers if needed
  /// and bumps the visited generation (O(1)). The distance array is
  /// already all kInfDist — finish_query() restored the invariant.
  void begin_query(Vertex n) {
    reserve(n);
    search_.begin(n);
  }

  /// Copies distances of [0, n) into `out` and restores the all-infinite
  /// invariant in the same pass. Every begin_query() must be paired with
  /// exactly one finish_query() OR reset_touched().
  void finish_query(Vertex n, std::vector<Dist>& out);

  /// O(touched) epilogue of both searches (see Search::reset_touched).
  /// Only valid when every inf -> finite transition since the run began
  /// was recorded (radius_stepping_partial and radius_stepping_meet
  /// guarantee this).
  void reset_touched() {
    search_.reset_touched();
    backward_.reset_touched();
  }

  /// search()'s tentative distance of `v` (valid between an engine run and
  /// the epilogue that ends it). Exact for every settled vertex; an upper
  /// bound elsewhere.
  Dist read_dist(Vertex v) const { return search_.read_dist(v); }

  // search()'s distances and claims, for the single-search baselines.
  std::atomic<Dist>* dist() { return search_.dist(); }
  void next_claim_epoch() { search_.next_claim_epoch(); }
  bool claim_sequential(Vertex v) { return search_.claim_sequential(v); }

  // --- targeted queries (early termination) --------------------------------
  // serve() stamps the request's target set before running an engine;
  // every engine run un-stamps targets as it settles them and may stop at
  // the next step boundary once none is pending (Theorem 3.1 makes
  // step-boundary distances final, so the exit is exact). Each vertex is
  // settled by exactly one worker, so the per-vertex stamps are plain.
  // Workers call take_target(), count what they took, and the run folds
  // the counts in with count_taken_targets(). clear_targets() is O(1);
  // stamps are epoch-invalidated.
  void set_targets(Vertex n, const Vertex* targets, std::size_t count);
  void clear_targets() {
    targeted_ = false;
    targets_remaining_ = 0;
    k_goal_ = 0;
  }
  bool has_targets() const { return targeted_; }
  /// Stamped targets not yet counted settled. Radius-stepping runs count
  /// their workers' takes when they end; until then this stays put.
  std::size_t targets_remaining() const { return targets_remaining_; }
  /// Un-stamps `v` if it is a pending target; true exactly once per target
  /// and query. The caller counts it (see count_taken_targets).
  bool take_target(Vertex v) {
    if (target_gen_[v] != target_epoch_) return false;
    target_gen_[v] = target_epoch_ - 1;
    return true;
  }
  /// Counts `taken` targets un-stamped by an engine's workers.
  void count_taken_targets(std::size_t taken) { targets_remaining_ -= taken; }

  // --- k-nearest queries (top-k early termination) -------------------------
  // The kTopK request kind: engines stop at the first step boundary with
  // at least `k` vertices settled (exact for the same Theorem 3.1 reason
  // as the targeted exit — see core/request.hpp). Cleared with
  // clear_targets(); zero means no goal.
  void set_k_goal(std::size_t k) { k_goal_ = k; }
  std::size_t k_goal() const { return k_goal_; }

  /// Reusable (dist, vertex) staging buffer for top-k extraction; keeps
  /// its capacity across queries like every other context buffer.
  std::vector<std::pair<Dist, Vertex>>& topk_buffer() {
    topk_buffer_.clear();
    return topk_buffer_;
  }

  /// At least `count` chunk cursors (grown on warm-up only). Cursor `w`
  /// belongs to worker `w`'s active list; the worker resets it whenever
  /// it refills that list.
  std::vector<ChunkCursor>& cursors(int count);

  // --- reusable vertex lists ----------------------------------------------
  // Distinct roles so engines can hold several live lists at once; all keep
  // their capacity across queries.
  std::vector<Vertex>& frontier() { return frontier_; }
  std::vector<Vertex>& next() { return next_; }
  std::vector<Vertex>& active() { return active_; }
  std::vector<Vertex>& scratch() { return scratch_; }

  /// Per-worker (vertex, distance) pair buckets (Delta-stepping phases).
  std::vector<std::vector<std::pair<Vertex, Dist>>>& pair_buckets(int workers);

  /// The Delta-stepping bucket queue, emptied (capacities kept).
  LazyBuckets& buckets() {
    buckets_.reset();
    return buckets_;
  }

  /// Indexed heap sized to capacity() (Dijkstra). Cleared on hand-out.
  IndexedHeap<Dist>& heap();

 private:
  Vertex n_ = 0;
  bool trace_phases_ = false;
  bool targeted_ = false;
  std::size_t targets_remaining_ = 0;
  std::size_t k_goal_ = 0;
  std::uint64_t target_epoch_ = 0;

  Search search_;
  Search backward_;
  std::vector<std::uint64_t> target_gen_;  // == target_epoch_ => wanted,
                                           // unsettled (lazily sized)

  std::vector<Vertex> frontier_;
  std::vector<Vertex> next_;
  std::vector<Vertex> active_;
  std::vector<Vertex> scratch_;
  std::vector<std::vector<std::pair<Vertex, Dist>>> pair_buckets_;
  LazyBuckets buckets_;
  std::vector<ChunkCursor> cursors_;
  IndexedHeap<Dist> heap_{0};
  std::vector<std::pair<Dist, Vertex>> topk_buffer_;
};

}  // namespace rs
