#include "baseline/dijkstra.hpp"

#include <algorithm>
#include <atomic>

#include "pq/binary_heap.hpp"

namespace rs {

std::vector<Dist> dijkstra(const Graph& g, Vertex source) {
  QueryContext ctx(g.num_vertices());
  std::vector<Dist> out;
  dijkstra(g, source, ctx, out);
  return out;
}

void dijkstra(const Graph& g, Vertex source, QueryContext& ctx,
              std::vector<Dist>& out) {
  const Vertex n = g.num_vertices();
  ctx.begin_query(n);
  std::atomic<Dist>* dist = ctx.dist();
  IndexedHeap<Dist>& heap = ctx.heap();
  dist[source].store(0, std::memory_order_relaxed);
  heap.insert_or_decrease(source, 0);
  while (!heap.empty()) {
    const auto [d, u] = heap.extract_min();
    for (EdgeId e = g.first_arc(u); e < g.last_arc(u); ++e) {
      const Vertex v = g.arc_target(e);
      const Dist nd = d + g.arc_weight(e);
      if (nd < dist[v].load(std::memory_order_relaxed)) {
        dist[v].store(nd, std::memory_order_relaxed);
        heap.insert_or_decrease(v, nd);
      }
    }
  }
  ctx.finish_query(n, out);
}

ShortestPathTreeResult dijkstra_min_hop_tree(const Graph& g, Vertex source) {
  const Vertex n = g.num_vertices();
  ShortestPathTreeResult out;
  out.dist.assign(n, kInfDist);
  out.parent.assign(n, kNoVertex);
  out.hops.assign(n, 0);
  std::vector<Vertex>& hops = out.hops;

  // Key = (distance, hop count): extraction order is still by distance, and
  // among equal distances the fewest-hops path is locked in first.
  struct Key {
    Dist d;
    Vertex h;
    bool operator<(const Key& o) const {
      return d != o.d ? d < o.d : h < o.h;
    }
    bool operator<=(const Key& o) const { return !(o < *this); }
    bool operator>=(const Key& o) const { return !(*this < o); }
  };
  IndexedHeap<Key> heap(n);
  out.dist[source] = 0;
  heap.insert_or_decrease(source, Key{0, 0});
  while (!heap.empty()) {
    const auto [key, u] = heap.extract_min();
    for (EdgeId e = g.first_arc(u); e < g.last_arc(u); ++e) {
      const Vertex v = g.arc_target(e);
      const Key cand{key.d + g.arc_weight(e),
                     static_cast<Vertex>(key.h + 1)};
      const Key cur{out.dist[v], hops[v]};
      const bool unseen = out.dist[v] == kInfDist;
      if (unseen || cand < cur) {
        out.dist[v] = cand.d;
        hops[v] = cand.h;
        out.parent[v] = u;
        heap.insert_or_decrease(v, cand);
      }
    }
  }
  return out;
}

std::size_t count_distinct_distances(const std::vector<Dist>& dist) {
  std::vector<Dist> finite;
  finite.reserve(dist.size());
  for (const Dist d : dist) {
    if (d != kInfDist && d != 0) finite.push_back(d);
  }
  std::sort(finite.begin(), finite.end());
  finite.erase(std::unique(finite.begin(), finite.end()), finite.end());
  return finite.size();
}

}  // namespace rs
