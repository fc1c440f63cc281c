#include "core/sp_tree.hpp"

#include <algorithm>
#include <stdexcept>

#include "parallel/primitives.hpp"

namespace rs {

std::vector<Vertex> parents_from_distances(const Graph& g, Vertex source,
                                           const std::vector<Dist>& dist) {
  return parents_from_distances(g, g.transposed(), source, dist);
}

std::vector<Vertex> parents_from_distances(const Graph& g, const Graph& tg,
                                           Vertex source,
                                           const std::vector<Dist>& dist) {
  const Vertex n = g.num_vertices();
  if (dist.size() != n) {
    throw std::invalid_argument("parents_from_distances: size mismatch");
  }
  if (tg.num_vertices() != n || tg.num_edges() != g.num_edges()) {
    throw std::invalid_argument("parents_from_distances: transpose mismatch");
  }
  if (source >= n || dist[source] != 0) {
    throw std::invalid_argument(
        "parents_from_distances: dist[source] must be 0");
  }
  // v's predecessor u needs an arc u->v: scan v's INCOMING arcs (the
  // transpose's out-arcs). Walking v's out-arcs instead would only be
  // right on symmetric graphs and returns wrong parents on directed ones.
  std::vector<Vertex> parent(n, kNoVertex);
  const auto dist_of = [&dist](Vertex v) { return dist[v]; };
  parallel_for(0, n, [&](std::size_t vi) {
    const Vertex v = static_cast<Vertex>(vi);
    if (v == source || dist[v] == kInfDist) return;
    parent[v] = detail::closer_predecessor(tg, v, dist[v], dist_of);
  }, /*grain=*/256);

  // A vertex still without a parent sits in a zero-weight pocket at its
  // own distance. Grow the tree into pockets breadth-first: each vertex
  // is adopted once, by one queued before it, so no parent cycle forms.
  std::vector<Vertex> frontier;
  for (Vertex v = 0; v < n; ++v) {
    if (v == source || parent[v] != kNoVertex) frontier.push_back(v);
  }
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const Vertex u = frontier[i];
    for (EdgeId e = g.first_arc(u); e < g.last_arc(u); ++e) {
      const Vertex x = g.arc_target(e);
      if (g.arc_weight(e) == 0 && x != source && parent[x] == kNoVertex &&
          dist[x] == dist[u]) {
        parent[x] = u;
        frontier.push_back(x);
      }
    }
  }
  return parent;
}

std::vector<Vertex> extract_path(const std::vector<Vertex>& parent,
                                 Vertex target) {
  std::vector<Vertex> path;
  Vertex cur = target;
  while (cur != kNoVertex) {
    path.push_back(cur);
    if (path.size() > parent.size()) {
      throw std::logic_error("extract_path: parent cycle");
    }
    cur = parent[cur];
  }
  // A lone unreachable target has parent kNoVertex and dist infinity; the
  // caller distinguishes source (path == {source}) from unreachable by
  // checking its distance. We return the walked chain reversed.
  std::reverse(path.begin(), path.end());
  return path;
}

bool validate_shortest_path_tree(const Graph& g, Vertex source,
                                 const std::vector<Dist>& dist,
                                 const std::vector<Vertex>& parent) {
  const Vertex n = g.num_vertices();
  if (dist.size() != n || parent.size() != n || source >= n ||
      dist[source] != 0) {
    return false;
  }
  for (Vertex v = 0; v < n; ++v) {
    const Vertex p = parent[v];
    if (v == source || dist[v] == kInfDist) {
      if (p != kNoVertex) return false;
      continue;
    }
    if (p >= n) return false;  // kNoVertex included
    bool edge_ok = false;
    for (EdgeId e = g.first_arc(p); e < g.last_arc(p) && !edge_ok; ++e) {
      edge_ok = g.arc_target(e) == v && dist[p] + g.arc_weight(e) == dist[v];
    }
    if (!edge_ok) return false;
  }
  // Every chain must end at the source: a zero-weight arc closes a
  // distance both ways, so two vertices of a pocket could name each other.
  std::vector<char> state(n, 0);  // 1: on this walk, 2: reaches the source
  state[source] = 2;
  for (Vertex v = 0; v < n; ++v) {
    if (dist[v] == kInfDist) continue;
    Vertex x = v;
    for (; state[x] == 0; x = parent[x]) state[x] = 1;
    if (state[x] == 1) return false;  // a parent cycle
    for (x = v; state[x] == 1; x = parent[x]) state[x] = 2;
  }
  return true;
}

}  // namespace rs
