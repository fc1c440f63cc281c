// Shortest-path tree reconstruction and path extraction on top of a
// distance array.
//
// The parallel engines compute distances only (an atomic parent array would
// double the relaxation traffic); a downstream user who wants actual paths
// derives parents afterwards with one deterministic O(m) pass — for each v,
// the predecessor minimizing (delta(u) + w(u, v), u). This matches how
// production SSSP systems (and the paper's work accounting) treat paths.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"

namespace rs {

/// Parents realizing `dist` (which must be a valid SSSP distance vector for
/// `g`, e.g. from radius_stepping). parent[source] = kNoVertex; unreachable
/// vertices get kNoVertex. Deterministic: ties pick the smallest vertex id.
/// v's predecessor u must have an arc u->v, so the scan walks v's INCOMING
/// arcs; this overload builds the transpose internally (O(m)).
std::vector<Vertex> parents_from_distances(const Graph& g,
                                           const std::vector<Dist>& dist);

/// Same, over a caller-provided transpose (`tg` must be `g.transposed()`) —
/// the form SsspEngine::path uses so repeated path queries share one
/// transpose instead of rebuilding it per call.
std::vector<Vertex> parents_from_distances(const Graph& g, const Graph& tg,
                                           const std::vector<Dist>& dist);

/// Vertices of the shortest s->t path implied by `parent` (s first, t
/// last); empty if t is unreachable.
std::vector<Vertex> extract_path(const std::vector<Vertex>& parent,
                                 Vertex target);

/// The closure walk under extract_path_by_closure: APPENDS `from`, its
/// exact predecessor, and so on down to the first vertex at distance 0,
/// in that order (from first, source last). `dist_of(from)` must be exact
/// and finite. The serving path's one-target answer appends two of these
/// walks into the response's path buffer.
template <typename DistFn>
void append_closure_walk(const Graph& tg, Vertex from, DistFn&& dist_of,
                         std::vector<Vertex>& out) {
  const std::size_t start = out.size();
  Dist d = dist_of(from);
  Vertex cur = from;
  out.push_back(cur);
  while (d > 0) {
    Vertex best = kNoVertex;
    Dist best_d = 0;
    for (EdgeId e = tg.first_arc(cur); e < tg.last_arc(cur); ++e) {
      const Vertex u = tg.arc_target(e);
      if (u >= best) continue;  // only a smaller id can improve the tie
      const Dist du = dist_of(u);
      if (du != kInfDist && du + tg.arc_weight(e) == d) {
        best = u;
        best_d = du;
      }
    }
    if (best == kNoVertex) {
      throw std::logic_error("extract_path_by_closure: no exact predecessor");
    }
    cur = best;
    d = best_d;
    out.push_back(cur);
    if (out.size() - start > tg.num_vertices()) {
      throw std::logic_error("extract_path_by_closure: predecessor cycle");
    }
  }
}

/// Targeted backward walk: writes the shortest source->target path into
/// `out` (source first, target last; cleared to empty when unreachable)
/// reading distances through `dist_of(v)` — a plain vector, the engine's
/// atomic working array, anything callable. O(path length * in-degree)
/// instead of the O(m + n) full parents pass: the serving-path form.
///
/// `tg` is the TRANSPOSE of the graph the path lives in. `dist_of(target)`
/// must be exact; predecessors are found by exact closure (dist_of(u) +
/// w(u, v) == dist_of(v)), which self-selects exact vertices even when
/// other entries are tentative upper bounds from an early-terminated run:
/// an overestimate can never close an exact distance (closure would imply
/// a shorter-than-shortest path), so every hop walked is a true shortest-
/// path edge. Ties pick the smallest vertex id (deterministic; matches
/// parents_from_distances on fully-exact distance arrays).
template <typename DistFn>
void extract_path_by_closure(const Graph& tg, Vertex target, DistFn&& dist_of,
                             std::vector<Vertex>& out) {
  out.clear();
  if (dist_of(target) == kInfDist) return;
  append_closure_walk(tg, target, dist_of, out);
  std::reverse(out.begin(), out.end());
}

/// Validates that (dist, parent) form a consistent shortest-path tree:
/// every parent edge exists and closes the distance exactly. Test oracle
/// and debugging aid.
bool validate_shortest_path_tree(const Graph& g, const std::vector<Dist>& dist,
                                 const std::vector<Vertex>& parent);

}  // namespace rs
