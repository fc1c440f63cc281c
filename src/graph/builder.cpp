#include "graph/builder.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

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
/// start[u + 1]) of `arcs`, each arc packed as (target, weight). `split`
/// is filled only for a two-part sort (see bucket_arcs).
struct Buckets {
  std::vector<EdgeId> start;
  std::vector<EdgeId> split;
  std::unique_ptr<Packed[]> arcs;
};

/// Counting sort of `triples` into one bucket per source vertex, with
/// opts.symmetrize adding each reverse arc to its target's bucket. Given
/// `first`, triples [first, size) are scattered before triples [0, first),
/// so u's bucket holds the former's arcs in [start[u], split[u]) and the
/// latter's in [split[u], start[u + 1]). Frees `triples` once the arcs are
/// bucketed, which lowers the peak footprint.
Buckets bucket_arcs(Vertex n, std::vector<EdgeTriple>& triples,
                    const BuildOptions& opts,
                    std::optional<std::size_t> first = std::nullopt) {
  std::atomic<bool> out_of_range{false};
  // Static blocks: triples usually arrive grouped by source, so each
  // counter stays on one worker.
  const auto for_each_arc = [&](std::size_t lo, std::size_t hi,
                                auto&& emit) {
    parallel_for_blocked(lo, hi, [&](std::size_t i) {
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
  const std::size_t nt = triples.size();
  for_each_arc(0, nt, [&](Vertex u, Packed) { bump(u); });
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
  const auto scatter = [&](std::size_t lo, std::size_t hi) {
    for_each_arc(lo, hi, [&](Vertex u, Packed a) { out.arcs[bump(u)] = a; });
  };
  if (first) {
    scatter(*first, nt);
    out.split.resize(n);
    parallel_for(0, n, [&](std::size_t u) {
      out.split[u] = cursor[u].load(std::memory_order_relaxed);
    });
    scatter(0, *first);
  } else {
    scatter(0, nt);
  }
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
  // The base graph's arcs are appended to `extra`, and one counting sort
  // buckets both, base arcs first in each bucket. Both are symmetrized;
  // `g` is symmetric, so no reverse arc beats the base arc dedup keeps.
  const Vertex n = g.num_vertices();
  const std::size_t num_extra = extra.size();
  extra.resize(num_extra + g.num_edges());
  parallel_for(0, n, [&](std::size_t v) {
    for (EdgeId e = g.first_arc(static_cast<Vertex>(v));
         e < g.last_arc(static_cast<Vertex>(v)); ++e) {
      extra[num_extra + e] =
          EdgeTriple{static_cast<Vertex>(v), g.arc_target(e), g.arc_weight(e)};
    }
  }, /*grain=*/256);
  const Buckets b = bucket_arcs(n, extra, BuildOptions{}, num_extra);

  // Per vertex: dedup the base arcs by target, then walk the extra arcs
  // in (weight, target) order. The first extra arc to a target is its
  // lightest: it is kept unless the base arc to that target is at most as
  // heavy, and replaces that base arc when strictly lighter, so the arc
  // set is the per-pair minimum, as a single dedup would give. Each worker
  // marks the targets met at the vertex it is merging: owner u + 1, and
  // the slot of the base arc to that target while an extra arc can still
  // replace it (kNoVertex once an extra arc holds the target).
  struct Mark {
    Vertex owner = 0;
    Vertex slot = kNoVertex;
  };
  constexpr Packed kDropped = ~Packed{0};  // target kNoVertex: never an arc
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<EdgeId> shortcut_start(n);
  const int nw = num_workers();
#pragma omp parallel num_threads(nw)
  {
    std::vector<Mark> mark(n);
#pragma omp for schedule(dynamic, 64)
    for (std::int64_t su = 0; su < static_cast<std::int64_t>(n); ++su) {
      const auto u = static_cast<std::size_t>(su);
      const Vertex owner = static_cast<Vertex>(u) + 1;
      Packed* base = b.arcs.get() + b.start[u];
      Packed* shortcut = b.arcs.get() + b.split[u];
      Packed* const end = b.arcs.get() + b.start[u + 1];
      Packed* base_end = sort_unique_by_target(base, shortcut);
      for (Packed* a = base; a != base_end; ++a) {
        mark[arc_key(*a)] = Mark{owner, static_cast<Vertex>(a - base)};
      }
      for (Packed* a = shortcut; a != end; ++a) {
        *a = pack_arc(arc_value(*a), arc_key(*a));
      }
      std::sort(shortcut, end);
      Packed* shortcut_out = shortcut;
      bool replaced = false;
      for (const Packed* a = shortcut; a != end; ++a) {
        Mark& seen = mark[arc_value(*a)];
        if (seen.owner == owner) {
          if (seen.slot == kNoVertex ||
              arc_value(base[seen.slot]) <= arc_key(*a)) {
            continue;
          }
          base[seen.slot] = kDropped;
          replaced = true;
        }
        seen = Mark{owner, kNoVertex};
        *shortcut_out++ = *a;
      }
      if (replaced) base_end = std::remove(base, base_end, kDropped);
      shortcut_start[u] = static_cast<EdgeId>(base_end - base);
      offsets[u] =
          shortcut_start[u] + static_cast<EdgeId>(shortcut_out - shortcut);
    }
  }

  // Compact: original segment packed as (target, weight), shortcut
  // segment as (weight, target).
  const EdgeId m = exclusive_scan(offsets, offsets);
  std::vector<Vertex> targets(m);
  std::vector<Weight> weights(m);
  parallel_for(0, n, [&](std::size_t u) {
    shortcut_start[u] += offsets[u];
    const Packed* arcs = b.arcs.get() + b.start[u];
    for (EdgeId e = offsets[u]; e < shortcut_start[u]; ++e, ++arcs) {
      targets[e] = arc_key(*arcs);
      weights[e] = arc_value(*arcs);
    }
    arcs = b.arcs.get() + b.split[u];
    for (EdgeId e = shortcut_start[u]; e < offsets[u + 1]; ++e, ++arcs) {
      targets[e] = arc_value(*arcs);
      weights[e] = arc_key(*arcs);
    }
  }, /*grain=*/256);
  return Graph(std::move(offsets), std::move(targets), std::move(weights),
               std::move(shortcut_start));
}

}  // namespace rs
