#include "baseline/delta_stepping.hpp"

#include <algorithm>
#include <atomic>

#include "parallel/primitives.hpp"
#include "parallel/write_min.hpp"
#include "pq/lazy_buckets.hpp"

namespace rs {

void delta_stepping(const Graph& g, Vertex source, QueryContext& ctx,
                    std::vector<Dist>& out, Dist delta,
                    DeltaSteppingStats* stats) {
  const Vertex n = g.num_vertices();
  if (delta == 0) {
    const EdgeId dmax = std::max<EdgeId>(g.max_degree(), 1);
    delta = std::max<Dist>(1, g.max_weight() / dmax);
  }

  ctx.begin_query(n);
  std::atomic<Dist>* dist = ctx.dist();
  dist[source].store(0, std::memory_order_relaxed);

  // Arc partition: light (w <= delta) relaxed iteratively inside a bucket,
  // heavy (w > delta) relaxed once when the bucket settles. Bucket i holds
  // distances in [i * delta, (i + 1) * delta); entries are lazy: a vertex
  // is filed again on every improvement and checked against its distance
  // when its bucket is read.
  LazyBuckets& buckets = ctx.buckets();
  buckets.push(source, 0);

  DeltaSteppingStats local_stats;
  std::vector<Vertex>& settled_list = ctx.active();
  std::vector<Vertex>& frontier = ctx.frontier();
  std::vector<Vertex>& reenter = ctx.scratch();

  // Collected improvements of one phase: (vertex, new distance) pairs
  // gathered per thread, applied to the bucket structure sequentially.
  const int nw = num_workers();
  auto& found = ctx.pair_buckets(nw);

  auto relax_frontier = [&](const std::vector<Vertex>& front, bool light) {
    for (auto& f : found) f.clear();
    if (nw == 1) {
      auto& mine = found[0];
      for (const Vertex u : front) {
        const Dist du = dist[u].load(std::memory_order_relaxed);
        for (EdgeId e = g.first_arc(u); e < g.last_arc(u); ++e) {
          const Weight w = g.arc_weight(e);
          if (light ? (w > delta) : (w <= delta)) continue;
          const Vertex v = g.arc_target(e);
          const Dist nd = du + w;
          if (nd < dist[v].load(std::memory_order_relaxed)) {
            dist[v].store(nd, std::memory_order_relaxed);
            mine.push_back({v, nd});
          }
        }
      }
    } else {
#pragma omp parallel num_threads(nw)
      {
        auto& mine = found[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(dynamic, 64)
        for (std::int64_t i = 0; i < static_cast<std::int64_t>(front.size());
             ++i) {
          const Vertex u = front[static_cast<std::size_t>(i)];
          const Dist du = dist[u].load(std::memory_order_relaxed);
          for (EdgeId e = g.first_arc(u); e < g.last_arc(u); ++e) {
            const Weight w = g.arc_weight(e);
            if (light ? (w > delta) : (w <= delta)) continue;
            const Vertex v = g.arc_target(e);
            const Dist nd = du + w;
            if (write_min(dist[v], nd)) mine.push_back({v, nd});
          }
        }
      }
    }
    std::size_t relaxed = 0;
    for (const auto& f : found) relaxed += f.size();
    local_stats.relaxations += relaxed;
  };

  auto flush_found = [&](std::uint64_t current_bucket,
                         std::vector<Vertex>* reenter_out) {
    for (const auto& f : found) {
      for (const auto& [v, nd] : f) {
        // Only the final distance matters; stale pairs are filtered by the
        // pop-time check. Pairs landing back in the current bucket feed the
        // next light phase directly.
        const Dist dv = dist[v].load(std::memory_order_relaxed);
        if (dv != nd) continue;  // superseded within the phase
        const std::uint64_t b = dv / delta;
        if (reenter_out != nullptr && b <= current_bucket) {
          // Fresh vertices get settled by the caller; already-settled ones
          // whose distance improved re-run their light edges (Meyer-Sanders
          // re-inserts them into the current bucket).
          reenter_out->push_back(v);
        } else {
          buckets.push(v, b);
        }
      }
    }
  };

  while (!buckets.empty()) {
    // Every bucket below the lowest filled one is empty, so the ring moves
    // up to it (out to the overflow's lowest bucket when the ring is bare).
    buckets.advance(buckets.next(buckets.base()));
    const std::uint64_t b = buckets.next(buckets.base());
    ++local_stats.buckets_processed;
    settled_list.clear();
    // One claim epoch per bucket: "settled in this bucket" dedup flags,
    // reset in O(1) instead of unmarking the settled list.
    ctx.next_claim_epoch();

    frontier.clear();
    buckets.filter(b, [&](Vertex v) {
      const Dist dv = dist[v].load(std::memory_order_relaxed);
      // Stale entries (the vertex moved to a lower bucket) and duplicates
      // are dropped; the rest are settled here.
      if (dv / delta == b && ctx.claim_sequential(v)) {
        settled_list.push_back(v);
        frontier.push_back(v);
      }
      return false;
    });

    // Light-edge phases: iterate until no new vertex re-enters this bucket.
    while (!frontier.empty()) {
      ++local_stats.phases;
      relax_frontier(frontier, /*light=*/true);
      reenter.clear();
      flush_found(b, &reenter);
      frontier.clear();
      for (const Vertex v : reenter) {
        if (ctx.claim_sequential(v)) {
          settled_list.push_back(v);
          frontier.push_back(v);
        }
      }
      // Vertices already settled in this bucket whose distance improved
      // again still need their light edges re-relaxed: Meyer-Sanders
      // re-inserts them. Catch them here.
      for (const Vertex v : reenter) {
        if (std::find(frontier.begin(), frontier.end(), v) == frontier.end()) {
          frontier.push_back(v);
        }
      }
    }

    // One heavy-edge phase over everything settled in this bucket.
    if (!settled_list.empty()) {
      ++local_stats.phases;
      relax_frontier(settled_list, /*light=*/false);
      flush_found(b, nullptr);
    }
  }

  if (stats != nullptr) *stats = local_stats;
  ctx.finish_query(n, out);
}

std::vector<Dist> delta_stepping(const Graph& g, Vertex source, Dist delta,
                                 DeltaSteppingStats* stats) {
  QueryContext ctx(g.num_vertices());
  std::vector<Dist> out;
  delta_stepping(g, source, ctx, out, delta, stats);
  return out;
}

}  // namespace rs
