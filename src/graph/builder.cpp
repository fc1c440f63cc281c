#include "graph/builder.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <utility>

#include <omp.h>

#include "parallel/primitives.hpp"

namespace rs {

namespace {

/// An arc in a bucket, packed as key << 32 | value so an integer sort
/// orders a bucket by (key, value).
using Packed = std::uint64_t;

Packed pack_arc(std::uint32_t key, std::uint32_t value) {
  return static_cast<Packed>(key) << 32 | value;
}
std::uint32_t arc_key(Packed a) { return static_cast<std::uint32_t>(a >> 32); }
std::uint32_t arc_value(Packed a) { return static_cast<std::uint32_t>(a); }

/// Arcs after the counting sort: vertex u's bucket is [start[u],
/// start[u + 1]) of `arcs`, each arc packed as (target, weight).
struct Buckets {
  std::vector<EdgeId> start;
  std::unique_ptr<Packed[]> arcs;
};

/// Counting sort of `triples` into one bucket per source vertex, with
/// opts.symmetrize adding each reverse arc to its target's bucket. Frees
/// `triples` once the arcs are bucketed, which lowers the peak footprint.
Buckets bucket_arcs(Vertex n, std::vector<EdgeTriple>& triples,
                    const BuildOptions& opts) {
  std::atomic<bool> out_of_range{false};
  // Static blocks: triples usually arrive grouped by source, so each
  // counter stays on one worker.
  const auto for_each_arc = [&](auto&& emit) {
    parallel_for_blocked(0, triples.size(), [&](std::size_t i) {
      const EdgeTriple& t = triples[i];
      if (t.u >= n || t.v >= n) {
        out_of_range.store(true, std::memory_order_relaxed);
        return;
      }
      if (opts.remove_self_loops && t.u == t.v) return;
      emit(t.u, pack_arc(t.v, t.w));
      if (opts.symmetrize) emit(t.v, pack_arc(t.u, t.w));
    });
  };

  // 1. Count every bucket's arcs.
  std::vector<std::atomic<EdgeId>> cursor(n);
  const auto bump = [&](Vertex u) {
    return cursor[u].fetch_add(1, std::memory_order_relaxed);
  };
  for_each_arc([&](Vertex u, Packed) { bump(u); });
  if (out_of_range.load()) {
    throw std::invalid_argument("build_graph: endpoint out of range");
  }

  // 2. Bucket offsets.
  Buckets out;
  out.start.assign(static_cast<std::size_t>(n) + 1, 0);
  parallel_for(0, n, [&](std::size_t u) {
    out.start[u] = cursor[u].load(std::memory_order_relaxed);
  });
  const EdgeId total = exclusive_scan(out.start, out.start);
  parallel_for(0, n, [&](std::size_t u) {
    cursor[u].store(out.start[u], std::memory_order_relaxed);
  });

  // 3. Scatter. Every slot is written, so the array is left uninitialised.
  out.arcs.reset(new Packed[total]);
  for_each_arc([&](Vertex u, Packed a) { out.arcs[bump(u)] = a; });
  std::vector<EdgeTriple>().swap(triples);
  return out;
}

/// Sorts [lo, hi) by (target, weight) and keeps the lightest arc per
/// target; returns the new end.
Packed* sort_unique_by_target(Packed* lo, Packed* hi) {
  std::sort(lo, hi);
  return std::unique(lo, hi, [](Packed a, Packed b) {
    return arc_key(a) == arc_key(b);
  });
}

/// One worker's scratch in merge_edges: a mark per target id, stamped
/// per vertex so that it is never cleared, and room to sort a base list
/// that is out of order. The marks are allocated on first use, so a
/// worker that meets no extra arc allocates nothing. One cache line
/// each: every vertex with extra arcs bumps its worker's stamp.
struct alignas(64) MergeScratch {
  struct Mark {
    Vertex stamp = 0;
    Weight weight = 0;
  };
  std::vector<Mark> mark;
  Vertex stamp = 0;
  std::vector<Packed> sorted;

  /// A stamp no mark holds yet.
  Vertex next_stamp(Vertex n) {
    if (mark.empty()) mark.resize(n);
    if (++stamp == 0) {
      std::fill(mark.begin(), mark.end(), Mark{});
      stamp = 1;
    }
    return stamp;
  }
};

/// Calls f(target, weight) for u's arcs in g, lightest per target and
/// self-loops dropped, in target order. A list already in (target,
/// weight) order, as build_graph leaves it, is read in place; any other
/// is sorted in `sorted` first.
template <typename F>
void for_each_base_arc(const Graph& g, Vertex u, std::vector<Packed>& sorted,
                       F&& f) {
  const EdgeId lo = g.first_arc(u);
  const EdgeId hi = g.last_arc(u);
  const auto arc = [&](EdgeId e) {
    return pack_arc(g.arc_target(e), g.arc_weight(e));
  };
  const auto emit = [&](std::size_t count, auto&& at) {
    for (std::size_t i = 0; i < count; ++i) {
      const Vertex t = arc_key(at(i));
      if (t != u && (i == 0 || arc_key(at(i - 1)) != t)) {
        f(t, arc_value(at(i)));
      }
    }
  };
  EdgeId e = lo + 1;
  while (e < hi && arc(e - 1) <= arc(e)) ++e;
  if (e >= hi) {
    emit(static_cast<std::size_t>(hi - lo),
         [&](std::size_t i) { return arc(lo + i); });
    return;
  }
  sorted.clear();
  for (e = lo; e < hi; ++e) sorted.push_back(arc(e));
  std::sort(sorted.begin(), sorted.end());
  emit(sorted.size(), [&](std::size_t i) { return sorted[i]; });
}

}  // namespace

Graph build_graph(Vertex n, std::vector<EdgeTriple> triples,
                  const BuildOptions& opts) {
  const Buckets b = bucket_arcs(n, triples, opts);

  // Sort each bucket; after the sort the first arc to each target is the
  // lightest, which is the one dedup keeps. A global (u, v, w) sort plus
  // unique-by-(u, v) gives the same arrays, so the output does not depend
  // on the order of `triples`.
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  parallel_for(0, n, [&](std::size_t u) {
    Packed* lo = b.arcs.get() + b.start[u];
    Packed* hi = b.arcs.get() + b.start[u + 1];
    if (opts.dedup) {
      hi = sort_unique_by_target(lo, hi);
    } else {
      std::sort(lo, hi);
    }
    offsets[u] = static_cast<EdgeId>(hi - lo);
  }, /*grain=*/256);

  // Compact the buckets into the CSR arrays.
  const EdgeId m = exclusive_scan(offsets, offsets);
  std::vector<Vertex> targets(m);
  std::vector<Weight> weights(m);
  parallel_for(0, n, [&](std::size_t u) {
    const Packed* arcs = b.arcs.get() + b.start[u];
    for (EdgeId e = offsets[u]; e < offsets[u + 1]; ++e, ++arcs) {
      targets[e] = arc_key(*arcs);
      weights[e] = arc_value(*arcs);
    }
  }, /*grain=*/256);
  return Graph(std::move(offsets), std::move(targets), std::move(weights));
}

Graph merge_edges(const Graph& g, std::vector<EdgeTriple> extra) {
  // Only the extra arcs are bucketed, in both directions; g's arcs are
  // read in place.
  const Vertex n = g.num_vertices();
  const Buckets b = bucket_arcs(n, extra, BuildOptions{});

  // Pass 1, per vertex: count the base arcs (marking their targets at a
  // vertex with extra arcs), then walk the extra arcs in (weight, target)
  // order. The first extra arc to a target is its
  // lightest: it is kept unless the base arc to that target is at most as
  // heavy, and replaces that base arc when strictly lighter, so the arc
  // set is the per-pair minimum. Each kept arc marks its target with
  // weight 0, which no later arc undercuts. The kept arcs move to the
  // front of u's bucket.
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<EdgeId> shortcut_start(n);
  const int nw = num_workers();
  std::vector<MergeScratch> scratch(static_cast<std::size_t>(nw));
#pragma omp parallel for schedule(dynamic, 64) num_threads(nw)
  for (std::int64_t su = 0; su < static_cast<std::int64_t>(n); ++su) {
    const auto u = static_cast<Vertex>(su);
    MergeScratch& mine =
        scratch[static_cast<std::size_t>(omp_get_thread_num())];
    Packed* const lo = b.arcs.get() + b.start[u];
    Packed* const hi = b.arcs.get() + b.start[u + 1];
    const Vertex stamp = lo == hi ? 0 : mine.next_stamp(n);
    EdgeId base = 0;
    for_each_base_arc(g, u, mine.sorted, [&](Vertex t, Weight w) {
      if (stamp != 0) mine.mark[t] = MergeScratch::Mark{stamp, w};
      ++base;
    });
    for (Packed* a = lo; a != hi; ++a) {
      *a = pack_arc(arc_value(*a), arc_key(*a));
    }
    std::sort(lo, hi);
    Packed* kept = lo;
    for (const Packed* a = lo; a != hi; ++a) {
      MergeScratch::Mark& seen = mine.mark[arc_value(*a)];
      if (seen.stamp == stamp) {
        if (seen.weight <= arc_key(*a)) continue;
        --base;  // replaced by this strictly lighter extra arc
      }
      seen = MergeScratch::Mark{stamp, 0};
      *kept++ = *a;
    }
    shortcut_start[u] = base;
    offsets[u] = base + static_cast<EdgeId>(kept - lo);
  }

  // Pass 2, per vertex: the original segment packed as (target, weight),
  // skipping the base arcs whose target a kept extra arc holds, then the
  // shortcut segment from the front of the bucket, packed as (weight,
  // target).
  const EdgeId m = exclusive_scan(offsets, offsets);
  std::vector<Vertex> targets(m);
  std::vector<Weight> weights(m);
#pragma omp parallel for schedule(dynamic, 64) num_threads(nw)
  for (std::int64_t su = 0; su < static_cast<std::int64_t>(n); ++su) {
    const auto u = static_cast<Vertex>(su);
    MergeScratch& mine =
        scratch[static_cast<std::size_t>(omp_get_thread_num())];
    EdgeId e = offsets[u];
    const EdgeId cut = e + shortcut_start[u];
    const Packed* const lo = b.arcs.get() + b.start[u];
    const Packed* const kept = lo + (offsets[u + 1] - cut);
    const Vertex stamp = lo == kept ? 0 : mine.next_stamp(n);
    for (const Packed* a = lo; a != kept; ++a) {
      mine.mark[arc_value(*a)].stamp = stamp;
    }
    for_each_base_arc(g, u, mine.sorted, [&](Vertex t, Weight w) {
      if (stamp != 0 && mine.mark[t].stamp == stamp) return;
      targets[e] = t;
      weights[e] = w;
      ++e;
    });
    for (const Packed* a = lo; a != kept; ++a, ++e) {
      targets[e] = arc_value(*a);
      weights[e] = arc_key(*a);
    }
    shortcut_start[u] = cut;
  }
  return Graph(std::move(offsets), std::move(targets), std::move(weights),
               std::move(shortcut_start));
}

}  // namespace rs
