#include "core/query_context.hpp"

#include "parallel/primitives.hpp"

namespace rs {

void QueryContext::Search::reserve(Vertex n) {
  if (n <= n_) return;
  // Atomics are neither copyable nor movable, so growth reconstructs the
  // atomic arrays; this is the warm-up path, never the per-query path.
  dist_ = std::vector<std::atomic<Dist>>(n);
  for (Vertex v = 0; v < n; ++v) {
    dist_[v].store(kInfDist, std::memory_order_relaxed);
  }
  claim_ = std::vector<std::atomic<std::uint64_t>>(n);
  for (Vertex v = 0; v < n; ++v) {
    claim_[v].store(0, std::memory_order_relaxed);
  }
  settled_gen_.resize(n, 0);
  n_ = n;
}

std::vector<QueryContext::WorkerScratch>& QueryContext::Search::workers(
    int count) {
  const auto wanted = static_cast<std::size_t>(count < 1 ? 1 : count);
  if (workers_.size() < wanted) workers_.resize(wanted);
  // Every entry is reset, not just the first `wanted`: a context that last
  // ran on more workers must not count their records. Records from a run
  // that was abandoned mid-query (an engine threw) are dropped here too;
  // the distance array is equally unrecoverable in that case and the
  // caller must not reuse the context without a full reset.
  for (WorkerScratch& w : workers_) {
    w.frontier.reset();
    w.claimed.clear();
    w.active.clear();
    w.touched.clear();
    w.settled = 0;
    w.relaxations = 0;
    w.edges_scanned = 0;
    w.targets_taken = 0;
    w.pending_di = kInfDist;
  }
  return workers_;
}

std::size_t QueryContext::Search::touched_count() const {
  std::size_t total = 0;
  for (const WorkerScratch& w : workers_) total += w.touched.size();
  return total;
}

void QueryContext::Search::reset_touched() {
  std::atomic<Dist>* dist = dist_.data();
  for (WorkerScratch& w : workers_) {
    for (const Vertex v : w.touched) {
      dist[v].store(kInfDist, std::memory_order_relaxed);
    }
    w.touched.clear();
  }
}

void QueryContext::Search::drop_touched() {
  for (WorkerScratch& w : workers_) w.touched.clear();
}

void QueryContext::reserve(Vertex n) {
  if (n <= n_) return;
  search_.reserve(n);
  heap_.reserve(n);
  n_ = n;
}

void QueryContext::finish_query(Vertex n, std::vector<Dist>& out) {
  // The fused copy below restores the all-infinite invariant for every
  // vertex; any first-touch records are redundant — drop them.
  search_.drop_touched();
  out.resize(n);
  Dist* out_data = out.data();
  std::atomic<Dist>* dist = search_.dist();
  // One block per worker: a streaming copy gains nothing from dynamic
  // chunks, and 64-word ones cost a scheduler round trip each.
  parallel_for_blocked(0, n, [&](std::size_t v) {
    out_data[v] = dist[v].load(std::memory_order_relaxed);
    dist[v].store(kInfDist, std::memory_order_relaxed);
  });
}

void QueryContext::reset_distances(Vertex n) {
  std::atomic<Dist>* dist = search_.dist();
  parallel_for_blocked(0, n, [&](std::size_t v) {
    dist[v].store(kInfDist, std::memory_order_relaxed);
  });
}

std::vector<QueryContext::ChunkCursor>& QueryContext::cursors(int count) {
  const auto wanted = static_cast<std::size_t>(count < 1 ? 1 : count);
  // Atomics cannot move, so growth rebuilds the array, like the distances.
  if (cursors_.size() < wanted) cursors_ = std::vector<ChunkCursor>(wanted);
  return cursors_;
}

void QueryContext::set_targets(Vertex n, const Vertex* targets,
                               std::size_t count) {
  if (target_gen_.size() < n) target_gen_.resize(n, 0);
  ++target_epoch_;  // starts at 1 on first use, so zero-init never matches
  targeted_ = true;
  targets_remaining_ = 0;
  k_goal_ = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Vertex v = targets[i];
    if (target_gen_[v] != target_epoch_) {  // duplicates stamp once
      target_gen_[v] = target_epoch_;
      ++targets_remaining_;
    }
  }
}

std::vector<std::vector<std::pair<Vertex, Dist>>>& QueryContext::pair_buckets(
    int workers) {
  const auto w = static_cast<std::size_t>(workers < 1 ? 1 : workers);
  if (pair_buckets_.size() < w) pair_buckets_.resize(w);
  for (std::size_t i = 0; i < w; ++i) pair_buckets_[i].clear();
  return pair_buckets_;
}

IndexedHeap<Dist>& QueryContext::heap() {
  heap_.clear();
  return heap_;
}

}  // namespace rs
