#include "graph/builder.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <utility>

#include "parallel/primitives.hpp"

namespace rs {

Graph build_graph(Vertex n, std::vector<EdgeTriple> triples,
                  const BuildOptions& opts) {
  const std::size_t nt = triples.size();
  const auto dropped = [&](const EdgeTriple& t) {
    return opts.remove_self_loops && t.u == t.v;
  };

  // 1. Check endpoints and count out-degrees. Static blocks: triples
  // usually arrive grouped by source, so each counter stays on one worker.
  std::vector<std::atomic<EdgeId>> cursor(n);
  std::atomic<bool> out_of_range{false};
  parallel_for_blocked(0, nt, [&](std::size_t i) {
    const EdgeTriple& t = triples[i];
    if (t.u >= n || t.v >= n) {
      out_of_range.store(true, std::memory_order_relaxed);
      return;
    }
    if (dropped(t)) return;
    cursor[t.u].fetch_add(1, std::memory_order_relaxed);
    if (opts.symmetrize) cursor[t.v].fetch_add(1, std::memory_order_relaxed);
  });
  if (out_of_range.load()) {
    throw std::invalid_argument("build_graph: endpoint out of range");
  }

  // 2. Bucket offsets.
  std::vector<EdgeId> start(static_cast<std::size_t>(n) + 1, 0);
  parallel_for(0, n, [&](std::size_t v) {
    start[v] = cursor[v].load(std::memory_order_relaxed);
  });
  const EdgeId total = exclusive_scan(start, start);
  parallel_for(0, n, [&](std::size_t v) {
    cursor[v].store(start[v], std::memory_order_relaxed);
  });

  // 3. Scatter every arc into its source's bucket, packed as
  // target << 32 | weight so an integer sort orders a bucket by (target,
  // weight). Every slot is written, so the array is left uninitialised.
  std::unique_ptr<std::uint64_t[]> bucket(new std::uint64_t[total]);
  const auto pack = [](Vertex v, Weight w) {
    return static_cast<std::uint64_t>(v) << 32 | w;
  };
  parallel_for_blocked(0, nt, [&](std::size_t i) {
    const EdgeTriple& t = triples[i];
    if (dropped(t)) return;
    bucket[cursor[t.u].fetch_add(1, std::memory_order_relaxed)] =
        pack(t.v, t.w);
    if (opts.symmetrize) {
      bucket[cursor[t.v].fetch_add(1, std::memory_order_relaxed)] =
          pack(t.u, t.w);
    }
  });
  std::vector<EdgeTriple>().swap(triples);  // lowers the peak footprint

  // 4. Sort each bucket; after the sort the first arc to each target is the
  // lightest, which is the one dedup keeps. A global (u, v, w) sort plus
  // unique-by-(u, v) gives the same arrays, so the output does not depend
  // on the order of `triples`.
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  parallel_for(0, n, [&](std::size_t u) {
    std::uint64_t* lo = bucket.get() + start[u];
    std::uint64_t* hi = bucket.get() + start[u + 1];
    std::sort(lo, hi);
    if (opts.dedup) {
      hi = std::unique(lo, hi, [](std::uint64_t a, std::uint64_t b) {
        return a >> 32 == b >> 32;
      });
    }
    offsets[u] = static_cast<EdgeId>(hi - lo);
  }, /*grain=*/256);

  // 5. Compact the buckets into the CSR arrays.
  const EdgeId m = exclusive_scan(offsets, offsets);
  std::vector<Vertex> targets(m);
  std::vector<Weight> weights(m);
  parallel_for(0, n, [&](std::size_t u) {
    const std::uint64_t* arcs = bucket.get() + start[u];
    for (EdgeId e = offsets[u]; e < offsets[u + 1]; ++e, ++arcs) {
      targets[e] = static_cast<Vertex>(*arcs >> 32);
      weights[e] = static_cast<Weight>(*arcs);
    }
  }, /*grain=*/256);
  return Graph(std::move(offsets), std::move(targets), std::move(weights));
}

Graph merge_edges(const Graph& g, std::vector<EdgeTriple> extra,
                  const BuildOptions& opts) {
  // build_graph's output does not depend on arc order, so the base graph's
  // arcs are appended to `extra` in place. The base graph already stores
  // both arc directions; symmetrizing again only duplicates them, and
  // dedup removes the copies. Extra arcs do need symmetrizing, which this
  // achieves in one pass.
  const std::size_t base = extra.size();
  extra.resize(base + g.num_edges());
  parallel_for(0, g.num_vertices(), [&](std::size_t v) {
    for (EdgeId e = g.first_arc(static_cast<Vertex>(v));
         e < g.last_arc(static_cast<Vertex>(v)); ++e) {
      extra[base + e] =
          EdgeTriple{static_cast<Vertex>(v), g.arc_target(e), g.arc_weight(e)};
    }
  }, /*grain=*/256);
  return build_graph(g.num_vertices(), std::move(extra), opts);
}

}  // namespace rs
