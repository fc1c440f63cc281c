// Shortest-path tree reconstruction and path extraction on top of a
// distance array.
//
// The parallel engines compute distances only (an atomic parent array would
// double the relaxation traffic); a downstream user who wants actual paths
// derives parents afterwards in deterministic O(m) passes — for each v,
// the predecessor minimizing (delta(u) + w(u, v), u). This matches how
// production SSSP systems (and the paper's work accounting) treat paths.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace rs {

/// Parents realizing `dist`, the exact SSSP distances from `source` in
/// `g` (throws std::invalid_argument unless dist[source] == 0): a tree
/// rooted at `source` in which every other reachable vertex, one at
/// distance 0 included, has a parent. v's predecessor u must have an arc
/// u->v, so the scan walks v's INCOMING arcs; this overload builds the
/// transpose internally (O(m)). Deterministic: the smallest-id exact
/// predecessor strictly closer to the source, as extract_path_by_closure
/// picks; a vertex with none, reached over zero-weight arcs at its own
/// distance, is adopted breadth-first over those arcs from the tree.
std::vector<Vertex> parents_from_distances(const Graph& g, Vertex source,
                                           const std::vector<Dist>& dist);

/// Same, over a caller-provided transpose (`tg` must be `g.transposed()`).
std::vector<Vertex> parents_from_distances(const Graph& g, const Graph& tg,
                                           Vertex source,
                                           const std::vector<Dist>& dist);

/// Vertices of the shortest s->t path implied by `parent` (s first, t
/// last); empty if t is unreachable.
std::vector<Vertex> extract_path(const std::vector<Vertex>& parent,
                                 Vertex target);

namespace detail {

/// The smallest-id exact predecessor of `v` (at distance d) strictly
/// closer to the root: an out-arc (v, u) of `tg` with a positive weight w
/// and dist_of(u) + w == d. kNoVertex when there is none.
template <typename DistFn>
Vertex closer_predecessor(const Graph& tg, Vertex v, Dist d,
                          DistFn& dist_of) {
  Vertex best = kNoVertex;
  for (EdgeId e = tg.first_arc(v); e < tg.last_arc(v); ++e) {
    const Vertex u = tg.arc_target(e);
    // Only a smaller id can improve the tie.
    if (u >= best || tg.arc_weight(e) == 0) continue;
    const Dist du = dist_of(u);
    if (du != kInfDist && du + tg.arc_weight(e) == d) best = u;
  }
  return best;
}

/// `from` is not `root` and has no exact predecessor strictly closer to
/// it, so it lies in a pocket of vertices at its distance joined by
/// zero-weight arcs. Searches that pocket breadth-first, each vertex once,
/// for the nearest vertex that is `root` or has a closer exact
/// predecessor; APPENDS the pocket path after `from` up to and including
/// that vertex and returns it. A greedy step could pick a pocket vertex
/// whose only exact predecessors are behind it, and cycle.
template <typename DistFn>
Vertex append_zero_weight_exit(const Graph& tg, Vertex from, Vertex root,
                               DistFn& dist_of, std::vector<Vertex>& out) {
  const Dist d = dist_of(from);
  // Pocket vertices in visit order, each with the index it was reached
  // from.
  std::vector<std::pair<Vertex, std::size_t>> order = {{from, 0}};
  std::unordered_set<Vertex> seen = {from};
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Vertex x = order[i].first;
    if (i > 0 &&
        (x == root || closer_predecessor(tg, x, d, dist_of) != kNoVertex)) {
      const std::size_t mark = out.size();
      for (std::size_t j = i; j != 0; j = order[j].second) {
        out.push_back(order[j].first);
      }
      std::reverse(out.begin() + static_cast<std::ptrdiff_t>(mark), out.end());
      return x;
    }
    for (EdgeId e = tg.first_arc(x); e < tg.last_arc(x); ++e) {
      const Vertex u = tg.arc_target(e);
      if (tg.arc_weight(e) == 0 && dist_of(u) == d && seen.insert(u).second) {
        order.push_back({u, i});
      }
    }
  }
  throw std::logic_error("extract_path_by_closure: no exact predecessor");
}

}  // namespace detail

/// The closure walk under extract_path_by_closure: APPENDS `from`, its
/// exact predecessor, and so on until `root`, the vertex the distances
/// were searched from (from first, root last). `dist_of(from)` must be
/// exact and finite. Each hop goes to the smallest-id exact predecessor
/// strictly closer to `root`; only where there is none (a zero-weight
/// arc ends the shortest path) does the walk cross a pocket of equal
/// distances, visiting no vertex twice. On positive weights every exact
/// predecessor is strictly closer, so the pocket search never runs and
/// the walk allocates nothing beyond `out`. The serving path's one-target
/// answer appends two of these walks into the response's path buffer.
template <typename DistFn>
void append_closure_walk(const Graph& tg, Vertex from, Vertex root,
                         DistFn&& dist_of, std::vector<Vertex>& out) {
  Vertex cur = from;
  out.push_back(cur);
  while (cur != root) {
    const Vertex next =
        detail::closer_predecessor(tg, cur, dist_of(cur), dist_of);
    if (next == kNoVertex) {
      cur = detail::append_zero_weight_exit(tg, cur, root, dist_of, out);
    } else {
      cur = next;
      out.push_back(cur);
    }
  }
}

/// Targeted backward walk: writes the shortest source->target path into
/// `out` (source first, target last; cleared to empty when unreachable)
/// reading distances through `dist_of(v)` — a lambda over a plain vector
/// or the engine's working array, anything callable — of a search from
/// `source`.
/// O(path length * in-degree) instead of the O(m + n) full parents pass:
/// the serving-path form.
///
/// `tg` must list each vertex's INCOMING arcs of the graph the path lives
/// in as its out-arcs: that graph's transpose, or the graph itself when
/// it is symmetric (is_symmetric: only the lightest arc of a pair can
/// close a distance, and it weighs the same both ways). `dist_of(target)`
/// must be exact; predecessors are found by exact closure (dist_of(u) +
/// w(u, v) == dist_of(v)), which self-selects exact vertices even when
/// other entries are tentative upper bounds from an early-terminated run:
/// an overestimate can never close an exact distance (closure would imply
/// a shorter-than-shortest path), so every hop walked is a true shortest-
/// path edge. Ties pick the smallest vertex id (deterministic; matches
/// parents_from_distances on fully-exact distance arrays with positive
/// weights).
template <typename DistFn>
void extract_path_by_closure(const Graph& tg, Vertex source, Vertex target,
                             DistFn&& dist_of, std::vector<Vertex>& out) {
  out.clear();
  if (dist_of(target) == kInfDist) return;
  append_closure_walk(tg, target, source, dist_of, out);
  std::reverse(out.begin(), out.end());
}

/// Validates that (dist, parent) form a shortest-path tree rooted at
/// `source`: every reachable vertex but the source (distance 0 included)
/// has a parent edge that exists and closes its distance exactly, and
/// every parent chain ends at the source. Test oracle and debugging aid.
bool validate_shortest_path_tree(const Graph& g, Vertex source,
                                 const std::vector<Dist>& dist,
                                 const std::vector<Vertex>& parent);

}  // namespace rs
