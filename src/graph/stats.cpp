#include "graph/stats.hpp"

#include <algorithm>
#include <atomic>
#include <queue>

#include "graph/builder.hpp"
#include "parallel/primitives.hpp"

namespace rs {

std::vector<Vertex> connected_components(const Graph& g) {
  const Vertex n = g.num_vertices();
  std::vector<Vertex> comp(n, kNoVertex);
  std::vector<Vertex> stack;
  Vertex next_id = 0;
  for (Vertex s = 0; s < n; ++s) {
    if (comp[s] != kNoVertex) continue;
    const Vertex id = next_id++;
    comp[s] = id;
    stack.push_back(s);
    while (!stack.empty()) {
      const Vertex u = stack.back();
      stack.pop_back();
      for (const Vertex v : g.neighbors(u)) {
        if (comp[v] == kNoVertex) {
          comp[v] = id;
          stack.push_back(v);
        }
      }
    }
  }
  return comp;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() == 0) return true;
  const std::vector<Vertex> comp = connected_components(g);
  return std::all_of(comp.begin(), comp.end(),
                     [](Vertex c) { return c == 0; });
}

bool is_symmetric(const Graph& g) {
  // In build_graph's (target, weight) order a pair's first arc is its
  // lightest, and the reverse pair's first arc is one binary search away.
  // A graph in any other order is checked on a sorted copy.
  std::atomic<bool> asymmetric{false}, unsorted{false};
  parallel_for(0, g.num_vertices(), [&](std::size_t su) {
    const auto u = static_cast<Vertex>(su);
    for (EdgeId e = g.first_arc(u); e < g.last_arc(u); ++e) {
      const Vertex v = g.arc_target(e);
      if (e > g.first_arc(u) && g.arc_target(e - 1) >= v) {
        if (g.arc_target(e - 1) > v || g.arc_weight(e - 1) > g.arc_weight(e)) {
          unsorted.store(true, std::memory_order_relaxed);
        }
        continue;
      }
      if (v == u) continue;
      const Span<Vertex> back = g.neighbors(v);
      const Vertex* it = std::lower_bound(back.begin(), back.end(), u);
      const EdgeId r = g.first_arc(v) + static_cast<EdgeId>(it - back.begin());
      if (it == back.end() || *it != u || g.arc_weight(r) != g.arc_weight(e)) {
        asymmetric.store(true, std::memory_order_relaxed);
      }
    }
  }, /*grain=*/256);
  if (unsorted.load()) return is_symmetric(g.with_target_sorted_adjacency());
  return !asymmetric.load();
}

Graph largest_component(const Graph& g, std::vector<Vertex>* old_to_new) {
  const Vertex n = g.num_vertices();
  const std::vector<Vertex> comp = connected_components(g);
  const Vertex num_comp =
      comp.empty() ? 0 : *std::max_element(comp.begin(), comp.end()) + 1;
  std::vector<EdgeId> size(num_comp, 0);
  for (const Vertex c : comp) ++size[c];
  const Vertex best = static_cast<Vertex>(
      std::max_element(size.begin(), size.end()) - size.begin());

  std::vector<Vertex> map(n, kNoVertex);
  Vertex next = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (comp[v] == best) map[v] = next++;
  }
  std::vector<EdgeTriple> edges;
  edges.reserve(g.num_edges());
  for (Vertex u = 0; u < n; ++u) {
    if (map[u] == kNoVertex) continue;
    for (EdgeId e = g.first_arc(u); e < g.last_arc(u); ++e) {
      const Vertex v = g.arc_target(e);
      if (u < v) edges.push_back({map[u], map[v], g.arc_weight(e)});
    }
  }
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return build_graph(next, std::move(edges));
}

DegreeStats degree_stats(const Graph& g) {
  DegreeStats s;
  const Vertex n = g.num_vertices();
  if (n == 0) return s;
  s.min = g.degree(0);
  for (Vertex v = 0; v < n; ++v) {
    const EdgeId d = g.degree(v);
    s.min = std::min(s.min, d);
    s.max = std::max(s.max, d);
  }
  s.mean = static_cast<double>(g.num_edges()) / n;
  return s;
}

Vertex bfs_eccentricity(const Graph& g, Vertex source) {
  const Vertex n = g.num_vertices();
  std::vector<Vertex> level(n, kNoVertex);
  std::queue<Vertex> q;
  level[source] = 0;
  q.push(source);
  Vertex ecc = 0;
  while (!q.empty()) {
    const Vertex u = q.front();
    q.pop();
    for (const Vertex v : g.neighbors(u)) {
      if (level[v] == kNoVertex) {
        level[v] = level[u] + 1;
        ecc = std::max(ecc, level[v]);
        q.push(v);
      }
    }
  }
  return ecc;
}

Vertex approx_diameter(const Graph& g, Vertex source) {
  const Vertex n = g.num_vertices();
  if (n == 0) return 0;
  // Double sweep: BFS to the farthest vertex, then BFS again from it.
  std::vector<Vertex> level(n, kNoVertex);
  std::queue<Vertex> q;
  level[source] = 0;
  q.push(source);
  Vertex far = source;
  while (!q.empty()) {
    const Vertex u = q.front();
    q.pop();
    for (const Vertex v : g.neighbors(u)) {
      if (level[v] == kNoVertex) {
        level[v] = level[u] + 1;
        if (level[v] > level[far]) far = v;
        q.push(v);
      }
    }
  }
  return bfs_eccentricity(g, far);
}

}  // namespace rs
