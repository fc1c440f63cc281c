#include "baseline/uy_shortcut.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include <omp.h>

#include "graph/builder.hpp"
#include "graph/stats.hpp"
#include "parallel/primitives.hpp"
#include "parallel/rng.hpp"

namespace rs {

namespace {

/// Bellman–Ford from `source` limited to `hop_limit` rounds; distances are
/// exact for vertices whose shortest path uses <= hop_limit edges.
/// Frontier-based; stops early on convergence.
std::vector<Dist> limited_bellman_ford(const Graph& g, Vertex source,
                                       std::size_t hop_limit,
                                       std::size_t* rounds_out = nullptr) {
  const Vertex n = g.num_vertices();
  std::vector<Dist> dist(n, kInfDist);
  std::vector<std::uint8_t> queued(n, 0);
  std::vector<Vertex> frontier{source};
  std::vector<Vertex> next;
  dist[source] = 0;
  std::size_t rounds = 0;
  while (!frontier.empty() && rounds < hop_limit) {
    ++rounds;
    next.clear();
    for (const Vertex u : frontier) queued[u] = 0;
    for (const Vertex u : frontier) {
      const Dist du = dist[u];
      for (EdgeId e = g.first_arc(u); e < g.last_arc(u); ++e) {
        const Vertex v = g.arc_target(e);
        const Dist nd = du + g.arc_weight(e);
        if (nd < dist[v]) {
          dist[v] = nd;
          if (!queued[v]) {
            queued[v] = 1;
            next.push_back(v);
          }
        }
      }
    }
    frontier.swap(next);
  }
  if (rounds_out != nullptr) *rounds_out = rounds;
  return dist;
}

std::size_t default_hop_limit(Vertex n, Vertex num_hubs) {
  const double ln_n = std::log(std::max<double>(2.0, n));
  return static_cast<std::size_t>(
      std::ceil(2.0 * static_cast<double>(n) * ln_n / num_hubs));
}

}  // namespace

UYShortcutResult uy_preprocess(const Graph& g, Vertex num_hubs,
                               std::uint64_t seed, std::size_t hop_limit) {
  const Vertex n = g.num_vertices();
  if (num_hubs == 0 || num_hubs > n) {
    throw std::invalid_argument("uy_preprocess: bad hub count");
  }
  // merge_edges adds each hub shortcut in both directions, which only a
  // symmetric graph's distances allow.
  if (!is_symmetric(g)) {
    throw std::invalid_argument("uy_preprocess: needs a symmetric graph");
  }
  if (hop_limit == 0) hop_limit = default_hop_limit(n, num_hubs);

  // Distinct random hubs via hash-ranked selection.
  const SplitRng rng(seed);
  std::vector<std::pair<std::uint64_t, Vertex>> ranked(n);
  parallel_for(0, n, [&](std::size_t v) {
    ranked[v] = {rng.get(0, v), static_cast<Vertex>(v)};
  });
  std::nth_element(ranked.begin(), ranked.begin() + num_hubs, ranked.end());
  UYShortcutResult out;
  out.hubs.reserve(num_hubs);
  for (Vertex i = 0; i < num_hubs; ++i) out.hubs.push_back(ranked[i].second);
  std::sort(out.hubs.begin(), out.hubs.end());

  // Limited searches from every hub, in parallel across hubs.
  const int nw = num_workers();
  std::vector<std::vector<EdgeTriple>> shortcuts(static_cast<std::size_t>(nw));
#pragma omp parallel num_threads(nw)
  {
    auto& mine = shortcuts[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(dynamic, 1)
    for (std::int64_t hi = 0; hi < static_cast<std::int64_t>(num_hubs); ++hi) {
      const Vertex hub = out.hubs[static_cast<std::size_t>(hi)];
      const std::vector<Dist> dist = limited_bellman_ford(g, hub, hop_limit);
      for (Vertex v = 0; v < n; ++v) {
        if (v == hub || dist[v] == kInfDist) continue;
        if (dist[v] > std::numeric_limits<Weight>::max()) continue;
        mine.push_back({hub, v, static_cast<Weight>(dist[v])});
      }
    }
  }
  std::vector<EdgeTriple> all;
  for (auto& s : shortcuts) {
    all.insert(all.end(), s.begin(), s.end());
    s.clear();
  }
  const EdgeId before = g.num_undirected_edges();
  out.graph = merge_edges(g, std::move(all));
  out.added_edges = out.graph.num_undirected_edges() - before;
  return out;
}

std::vector<Dist> uy_query(const UYShortcutResult& pre, Vertex source,
                           std::size_t hop_limit, std::size_t* rounds_out) {
  const Vertex n = pre.graph.num_vertices();
  if (source >= n) throw std::invalid_argument("uy_query: bad source");
  if (hop_limit == 0) {
    hop_limit = default_hop_limit(
        n, static_cast<Vertex>(std::max<std::size_t>(1, pre.hubs.size())));
    // One extra hop to reach the first hub segment from the source, plus
    // hub->hub->...->target segments collapse to single shortcut arcs.
    hop_limit += 2;
  }
  return limited_bellman_ford(pre.graph, source, hop_limit, rounds_out);
}

}  // namespace rs
