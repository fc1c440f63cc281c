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
// A context is single-owner state: one query at a time, but the query
// running on it may use intra-query parallelism (the default) or run
// strictly sequentially (set_sequential(true)) — the mode the batch
// scheduler uses when it runs one query per worker.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "pq/binary_heap.hpp"

namespace rs {

class QueryContext {
 public:
  QueryContext() = default;
  explicit QueryContext(Vertex n) { reserve(n); }

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;
  QueryContext(QueryContext&&) = default;
  QueryContext& operator=(QueryContext&&) = default;

  /// Grows every per-vertex buffer to cover `n` vertices. All allocation
  /// happens here; engines only ever read/write in [0, n).
  void reserve(Vertex n);

  /// Largest vertex count this context is warmed up for.
  Vertex capacity() const { return n_; }

  /// True when the engines must not open parallel regions on this context
  /// (it is owned by one worker of an outer source-parallel batch).
  bool sequential() const { return sequential_; }
  void set_sequential(bool sequential) { sequential_ = sequential; }

  /// True when the engines should take per-phase clock readings into
  /// RunStats (relax/partition ns) for this run — set per
  /// request by SsspEngine::run_serve from QueryRequest::trace. Off by
  /// default: untraced runs take zero clock readings.
  bool trace_phases() const { return trace_phases_; }
  void set_trace_phases(bool trace) { trace_phases_ = trace; }

  /// Starts a query over `n` vertices: grows buffers if needed and bumps
  /// the visited generation (O(1)). The distance array is already all
  /// kInfDist — finish_query() restored the invariant.
  void begin_query(Vertex n) {
    reserve(n);
    ++query_gen_;
  }

  /// Copies distances of [0, n) into `out` and restores the all-infinite
  /// invariant in the same pass. Every begin_query() must be paired with
  /// exactly one finish_query() OR reset_distances().
  void finish_query(Vertex n, std::vector<Dist>& out);

  /// Restores the all-infinite invariant WITHOUT producing the O(n)
  /// output copy, by sweeping every entry. Prefer reset_touched() after an
  /// engine run that recorded first-touches — this full sweep is the
  /// fallback for distance arrays of unknown provenance.
  void reset_distances(Vertex n);

  /// Current tentative distance of `v` (valid between an engine run and
  /// the finish_query()/reset_distances() that ends it). Exact for every
  /// settled vertex; an upper bound elsewhere.
  Dist read_dist(Vertex v) const {
    return dist_[v].load(std::memory_order_relaxed);
  }

  // --- targeted queries (early termination) --------------------------------
  // serve() stamps the request's target set before running an engine;
  // every engine twin calls note_target_settled() as it settles vertices
  // and may stop at the next step boundary once targets_remaining() hits
  // zero (Theorem 3.1 makes step-boundary distances final, so the exit is
  // exact). Settle sites are single-writer in every twin — the counter is
  // plain. clear_targets() is O(1); stamps are epoch-invalidated.
  //
  // Optionally each target carries an admissible LOWER BOUND on its true
  // distance (ALT landmark bounds — serve/landmark_oracle.hpp). Engines
  // then call note_bound_checks() on updated target vertices in their
  // sequential sections: a target whose tentative distance has reached its
  // bound is provably final (tentative >= true >= bound) and counts as
  // settled immediately, steps before it would settle by distance order.
  void set_targets(Vertex n, const Vertex* targets, std::size_t count,
                   const Dist* lower_bounds = nullptr);
  void clear_targets() {
    targeted_ = false;
    target_bounds_ = false;
    targets_remaining_ = 0;
    k_goal_ = 0;
    lb_exits_ = 0;
  }
  bool has_targets() const { return targeted_; }
  std::size_t targets_remaining() const { return targets_remaining_; }
  /// Records that `v` settled; decrements the remaining count the first
  /// time a stamped target settles (idempotent per query).
  void note_target_settled(Vertex v) {
    if (target_gen_[v] == target_epoch_) {
      target_gen_[v] = target_epoch_ - 1;  // un-stamp: exactly-once
      --targets_remaining_;
    }
  }
  /// True when the current target set carries lower bounds worth checking.
  bool has_target_bounds() const { return target_bounds_; }
  /// Lower-bound proof site: if `v` is a still-pending target whose
  /// tentative distance `dv` has reached its admissible floor, count it
  /// settled. Sequential sections only (same discipline as
  /// note_target_settled). Engines call this on every vertex whose
  /// distance they just lowered.
  void note_bound_check(Vertex v, Dist dv) {
    if (target_gen_[v] == target_epoch_ && dv <= target_lb_[v]) {
      target_gen_[v] = target_epoch_ - 1;
      --targets_remaining_;
      ++lb_exits_;
    }
  }
  /// Targets settled by lower-bound proof in the current query.
  std::size_t lower_bound_exits() const { return lb_exits_; }

  // --- k-nearest queries (top-k early termination) -------------------------
  // The kTopK request kind: engines stop at the first step boundary with
  // at least `k` vertices settled (exact for the same Theorem 3.1 reason
  // as the targeted exit — see core/request.hpp). Cleared with
  // clear_targets(); zero means no goal.
  void set_k_goal(std::size_t k) { k_goal_ = k; }
  std::size_t k_goal() const { return k_goal_; }

  /// Read-only view of the per-worker first-touch records of the last run
  /// (valid until reset_touched()/finish_query()). The serve layer derives
  /// top-k answers from it: settled touched vertices carry final
  /// distances.
  const std::vector<std::vector<Vertex>>& touched_lists() const {
    return touched_;
  }

  /// Reusable (dist, vertex) staging buffer for top-k extraction; keeps
  /// its capacity across queries like every other context buffer.
  std::vector<std::pair<Dist, Vertex>>& topk_buffer() {
    topk_buffer_.clear();
    return topk_buffer_;
  }

  // --- first-touch tracking (O(touched) reset) -----------------------------
  // Every radius-stepping engine records each vertex whose tentative
  // distance leaves kInfDist — exactly once per query, at the moment of
  // the inf -> finite transition — into a per-worker touch bucket.
  // reset_touched() then restores the all-infinite invariant by writing
  // kInfDist back over just those vertices: the epilogue of a targeted
  // serve costs O(touched), not O(n). (finish_query()'s fused full copy
  // already restores the invariant; it discards the records.)
  //
  // Exactly-once discipline: sequential twins record after observing the
  // old value == kInfDist; parallel twins use the write_min overload that
  // reports the pre-CAS value, whose kInfDist observation has a unique
  // winner. A missed record would leak a stale finite distance into the
  // next query, so the contract is pinned by tests over every engine.

  /// Ensures `workers` touch buckets exist and are empty. Engines call
  /// this once per run, before any recording.
  std::vector<std::vector<Vertex>>& touch_buckets(int workers);
  /// Records the inf -> finite transition of `v` from worker `w` (must
  /// only be called by worker `w`; bucket 0 in sequential sections).
  void note_touched(Vertex v, int w = 0) { touched_[std::size_t(w)].push_back(v); }
  /// Vertices recorded since the buckets were prepared (== finite entries
  /// in the distance array after an engine run).
  std::size_t touched_count() const;
  /// O(touched) epilogue: restores the all-infinite invariant by resetting
  /// exactly the recorded vertices, then clears the records. Only valid
  /// when every inf -> finite transition since touch_buckets() was
  /// recorded (all radius-stepping engine partials guarantee this).
  void reset_touched();

  // --- tentative distances -------------------------------------------------
  // Shared by parallel engines (CAS WriteMin) and sequential ones (relaxed
  // load/store, no CAS); a relaxed atomic costs the same as a plain word on
  // the sequential path.
  std::atomic<Dist>* dist() { return dist_.data(); }

  // --- visited flags (single-writer, sequential sections only) -------------
  bool is_settled(Vertex v) const { return settled_gen_[v] == query_gen_; }
  void mark_settled(Vertex v) { settled_gen_[v] = query_gen_; }

  // --- claim flags (first claimer per epoch wins) --------------------------
  // An epoch is one dedup scope: a Bellman-Ford substep, a BFS level, a
  // Delta-stepping bucket. Bumping the epoch invalidates every claim in
  // O(1); the counter is monotone across queries so stale stamps can never
  // collide.
  void next_claim_epoch() { ++claim_epoch_; }
  /// Atomic claim for parallel relaxations: exactly one caller per epoch
  /// gets `true` for a given vertex.
  bool claim(Vertex v) {
    return claim_[v].exchange(claim_epoch_, std::memory_order_relaxed) !=
           claim_epoch_;
  }
  /// Same contract without the atomic RMW; only valid in sequential mode.
  bool claim_sequential(Vertex v) {
    if (claim_[v].load(std::memory_order_relaxed) == claim_epoch_) return false;
    claim_[v].store(claim_epoch_, std::memory_order_relaxed);
    return true;
  }

  // --- mark flags (single-writer list dedup) -------------------------------
  // A second, non-atomic epoch-stamp family for deduplicating list
  // membership in sequential sections (frontier rebuilds), independent of
  // the claim epochs the relaxation substeps burn through.
  void next_mark_epoch() { ++mark_epoch_; }
  /// True the first time `v` is marked in the current mark epoch.
  bool mark(Vertex v) {
    if (mark_gen_[v] == mark_epoch_) return false;
    mark_gen_[v] = mark_epoch_;
    return true;
  }

  // --- reusable vertex lists ----------------------------------------------
  // Distinct roles so engines can hold several live lists at once; all keep
  // their capacity across queries.
  std::vector<Vertex>& frontier() { return frontier_; }
  std::vector<Vertex>& next() { return next_; }
  std::vector<Vertex>& active() { return active_; }
  std::vector<Vertex>& updated() { return updated_; }
  std::vector<Vertex>& scratch() { return scratch_; }

  /// Per-worker collection buckets; returns at least `workers` empty
  /// buckets (buckets [0, workers) are cleared, capacities kept).
  std::vector<std::vector<Vertex>>& buckets(int workers);

  /// Per-worker (vertex, distance) pair buckets (Delta-stepping phases).
  std::vector<std::vector<std::pair<Vertex, Dist>>>& pair_buckets(int workers);

  /// Cyclic bucket slot storage (Delta-stepping); at least `count` slots,
  /// all empty, capacities kept.
  std::vector<std::vector<Vertex>>& bucket_slots(std::size_t count);

  /// Indexed heap sized to capacity() (Dijkstra). Cleared on hand-out.
  IndexedHeap<Dist>& heap();

 private:
  Vertex n_ = 0;
  bool sequential_ = false;
  bool trace_phases_ = false;
  bool targeted_ = false;
  bool target_bounds_ = false;
  std::size_t targets_remaining_ = 0;
  std::size_t k_goal_ = 0;
  std::size_t lb_exits_ = 0;

  std::uint64_t query_gen_ = 0;
  std::uint64_t claim_epoch_ = 0;
  std::uint64_t mark_epoch_ = 0;
  std::uint64_t target_epoch_ = 0;

  std::vector<std::atomic<Dist>> dist_;       // invariant: all kInfDist
  std::vector<std::uint64_t> settled_gen_;    // == query_gen_ => settled
  std::vector<std::uint64_t> mark_gen_;       // == mark_epoch_ => marked
  std::vector<std::uint64_t> target_gen_;     // == target_epoch_ => wanted,
                                              // unsettled (lazily sized)
  std::vector<Dist> target_lb_;               // admissible floor per stamped
                                              // target (lazily sized)
  std::vector<std::atomic<std::uint64_t>> claim_;  // == claim_epoch_ => claimed

  std::vector<Vertex> frontier_;
  std::vector<Vertex> next_;
  std::vector<Vertex> active_;
  std::vector<Vertex> updated_;
  std::vector<Vertex> scratch_;
  std::vector<std::vector<Vertex>> buckets_;
  std::vector<std::vector<std::pair<Vertex, Dist>>> pair_buckets_;
  std::vector<std::vector<Vertex>> bucket_slots_;
  std::vector<std::vector<Vertex>> touched_{1};  // per-worker first-touches
  IndexedHeap<Dist> heap_{0};
  std::vector<std::pair<Dist, Vertex>> topk_buffer_;
};

}  // namespace rs
