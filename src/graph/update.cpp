#include "graph/update.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace rs {

std::vector<ArcChange> weight_changes(
    const Graph& g, const std::vector<WeightUpdate>& updates) {
  const Vertex n = g.num_vertices();
  // Every arc an update rewrites, in batch order.
  std::vector<ArcChange> hits;
  const auto rewrite = [&](Vertex u, Vertex v, Weight w) {
    std::size_t hit = 0;
    for (EdgeId e = g.first_arc(u); e < g.last_arc(u); ++e) {
      if (g.arc_target(e) != v) continue;
      hits.push_back(ArcChange{u, v, g.arc_weight(e), w, e});
      ++hit;
    }
    return hit;
  };
  for (const WeightUpdate& up : updates) {
    if (up.u >= n || up.v >= n) {
      throw std::invalid_argument("apply_weight_updates: vertex out of range");
    }
    if (up.w < 1) {
      throw std::invalid_argument("apply_weight_updates: weight must be >= 1");
    }
    std::size_t hit = rewrite(up.u, up.v, up.w);
    if (up.u != up.v) hit += rewrite(up.v, up.u, up.w);
    if (hit == 0) {
      throw std::invalid_argument(
          "apply_weight_updates: no arc between " + std::to_string(up.u) +
          " and " + std::to_string(up.v));
    }
  }
  // A stable sort keeps each arc's rewrites in batch order, so the last of
  // each run holds the weight that wins.
  std::stable_sort(hits.begin(), hits.end(),
                   [](const ArcChange& a, const ArcChange& b) {
                     return a.arc < b.arc;
                   });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (i + 1 < hits.size() && hits[i + 1].arc == hits[i].arc) continue;
    if (hits[i].w_new != hits[i].w_old) hits[kept++] = hits[i];
  }
  hits.resize(kept);
  return hits;
}

UpdateApplication apply_weight_updates(
    const Graph& g, const std::vector<WeightUpdate>& updates) {
  UpdateApplication out;
  out.changes = weight_changes(g, updates);
  std::vector<Weight> weights = g.weights();
  for (const ArcChange& c : out.changes) weights[c.arc] = c.w_new;
  out.graph = Graph(g.offsets(), g.targets(), std::move(weights));
  return out;
}

}  // namespace rs
