/// \file
/// Live edge-weight updates over the immutable CSR Graph.
///
/// The Graph class is deliberately immutable — every engine and cached
/// row assumes the CSR it was built from never changes under it. Dynamic
/// traffic (road congestion, link cost churn) is therefore modeled as a
/// BATCH transformation: apply_weight_updates()
/// takes the current graph plus a list of WeightUpdate records and
/// returns a NEW graph with identical topology (same offsets/targets
/// arrays, so every EdgeId keeps its meaning) and the requested weights,
/// together with the exact per-arc delta list (ArcChange) that the
/// incremental re-preprocessing (shortcut/incremental.hpp) consumes.
///
/// Semantics follow the paper's undirected setting: an update (u, v, w)
/// re-weights EVERY arc u->v and every arc v->u (parallel arcs collapse
/// onto the same new weight — consistent with the builder's
/// dedup-by-minimum rule). On a directed graph only the directions that
/// actually exist are touched. Weight updates never add or remove arcs,
/// so reachability is invariant — only distances move.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace rs {

/// One requested edge re-weight: set the weight of edge {u, v} to `w`.
/// Within a batch, later updates to the same edge win.
struct WeightUpdate {
  /// One endpoint of the edge to re-weight.
  Vertex u = kNoVertex;
  /// The other endpoint (u == v re-weights a self-loop).
  Vertex v = kNoVertex;
  /// New weight; must be >= 1 (the paper normalizes min weight to 1).
  Weight w = 1;
};

/// One DIRECTED arc whose weight actually changed, with both the pre- and
/// post-batch weight. apply_weight_updates() emits one record per touched
/// arc (so an undirected update normally yields two, one per direction)
/// and drops no-ops.
struct ArcChange {
  /// Arc tail in the CSR (the vertex whose adjacency list holds `arc`).
  Vertex u = kNoVertex;
  /// Arc head.
  Vertex v = kNoVertex;
  /// Weight before the batch.
  Weight w_old = 0;
  /// Weight after the batch (never equal to w_old).
  Weight w_new = 0;
  /// The arc's EdgeId — stable across the update because the CSR layout
  /// (offsets/targets) is untouched; indexes both the old and new graph.
  EdgeId arc = 0;
};

/// The exact arc-level delta of a batch against `g`, without building a
/// graph: every arc whose weight the batch changes, in ascending EdgeId
/// order, with its pre-batch weight as w_old and its final weight as w_new
/// (later updates to an edge win; unchanged arcs omitted). Throws
/// std::invalid_argument for the batches apply_weight_updates() refuses,
/// which validates through it. Reads only the updated vertices' arcs:
/// O(sum of their degrees + b log b) for b updated arcs.
std::vector<ArcChange> weight_changes(const Graph& g,
                                      const std::vector<WeightUpdate>& updates);

/// Result of apply_weight_updates(): the re-weighted graph plus the exact
/// arc-level delta.
struct UpdateApplication {
  /// The new graph: identical offsets/targets, updated weights.
  Graph graph;
  /// Every arc whose weight changed, in ascending EdgeId order. Empty when
  /// the batch was a no-op (all updates re-stated current weights).
  std::vector<ArcChange> changes;
};

/// Applies a batch of weight updates to `g` and returns the new graph plus
/// the per-arc change list. Throws std::invalid_argument when an update
/// names an out-of-range vertex, a weight < 1, or an edge with no arc in
/// either direction. Within the batch, later updates to the same edge win;
/// `changes` always reports the pre-batch weight as w_old and the final
/// weight as w_new, with unchanged arcs omitted.
UpdateApplication apply_weight_updates(
    const Graph& g, const std::vector<WeightUpdate>& updates);

}  // namespace rs
