// Compressed-sparse-row graph: the storage format every algorithm runs on.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "graph/types.hpp"

namespace rs {

/// Immutable CSR graph. For undirected graphs both arc directions are
/// stored, so `num_edges()` counts directed arcs (2x the undirected count).
///
/// A graph may be SPLIT: each adjacency list is then two segments,
/// [first_arc(v), first_shortcut_arc(v)) holding original arcs and
/// [first_shortcut_arc(v), last_arc(v)) holding shortcut arcs sorted by
/// (weight, target). merge_edges (graph/builder.hpp) produces this
/// layout, and radius stepping stops a vertex's shortcut scan at the first
/// arc that lands beyond the step's d_i. An unsplit graph — every input
/// graph, and every graph from build_graph, transposed() or the
/// with_*_sorted_adjacency() copies — has an empty shortcut segment.
class Graph {
 public:
  Graph() = default;
  /// `shortcut_start` is empty (unsplit) or holds n entries with
  /// offsets[v] <= shortcut_start[v] <= offsets[v + 1], each shortcut
  /// segment sorted by weight; throws std::invalid_argument otherwise.
  Graph(std::vector<EdgeId> offsets, std::vector<Vertex> targets,
        std::vector<Weight> weights, std::vector<EdgeId> shortcut_start = {});

  Vertex num_vertices() const { return n_; }
  EdgeId num_edges() const { return static_cast<EdgeId>(targets_.size()); }
  /// Number of undirected edges (arcs / 2) — what the paper calls m.
  EdgeId num_undirected_edges() const { return num_edges() / 2; }

  EdgeId degree(Vertex v) const {
    assert(v < n_);
    return offsets_[v + 1] - offsets_[v];
  }

  EdgeId first_arc(Vertex v) const { return offsets_[v]; }
  EdgeId last_arc(Vertex v) const { return offsets_[v + 1]; }
  /// Start of v's shortcut segment; last_arc(v) on an unsplit graph.
  EdgeId first_shortcut_arc(Vertex v) const {
    return shortcut_start_.empty() ? offsets_[v + 1] : shortcut_start_[v];
  }

  Vertex arc_target(EdgeId e) const { return targets_[e]; }
  Weight arc_weight(EdgeId e) const { return weights_[e]; }

  Span<Vertex> neighbors(Vertex v) const {
    return {targets_.data() + offsets_[v],
            static_cast<std::size_t>(degree(v))};
  }
  Span<Weight> neighbor_weights(Vertex v) const {
    return {weights_.data() + offsets_[v],
            static_cast<std::size_t>(degree(v))};
  }

  const std::vector<EdgeId>& offsets() const { return offsets_; }
  const std::vector<Vertex>& targets() const { return targets_; }
  const std::vector<Weight>& weights() const { return weights_; }
  /// Shortcut-segment starts: n entries, or empty for an unsplit graph.
  const std::vector<EdgeId>& shortcut_starts() const {
    return shortcut_start_;
  }

  /// Largest edge weight (the paper's L); 1 for an edgeless graph.
  Weight max_weight() const;
  /// Smallest nonzero edge weight; the paper normalizes this to 1.
  Weight min_weight() const;
  EdgeId max_degree() const;

  /// Copy of this graph with each adjacency list sorted by ascending weight
  /// (tie-break by target id). Preprocessing's truncated Dijkstra relies on
  /// this to consider only the lightest rho edges per vertex (Lemma 4.2).
  Graph with_weight_sorted_adjacency() const;

  /// Copy with each adjacency list sorted by target id (canonical form,
  /// handy for equality checks in tests). Both copies are unsplit: the
  /// same arcs, with no shortcut segment.
  Graph with_target_sorted_adjacency() const;

  /// All arcs as triples (u, v, w); order follows the CSR layout.
  std::vector<EdgeTriple> to_triples() const;

  /// Copy with every arc reversed (u->v becomes v->u, weight kept). For a
  /// symmetric (undirected) graph this holds the same arc multiset; for a
  /// directed graph it is the in-adjacency view path reconstruction needs.
  Graph transposed() const;

  friend bool operator==(const Graph& a, const Graph& b) {
    return a.n_ == b.n_ && a.offsets_ == b.offsets_ &&
           a.targets_ == b.targets_ && a.weights_ == b.weights_ &&
           a.shortcut_start_ == b.shortcut_start_;
  }
  friend bool operator!=(const Graph& a, const Graph& b) { return !(a == b); }

 private:
  template <typename Cmp>
  Graph with_sorted_adjacency(Cmp cmp) const;

  Vertex n_ = 0;
  std::vector<EdgeId> offsets_;   // size n_ + 1
  std::vector<Vertex> targets_;   // size m
  std::vector<Weight> weights_;   // size m
  std::vector<EdgeId> shortcut_start_;  // size n_, or empty (unsplit)
};

}  // namespace rs
