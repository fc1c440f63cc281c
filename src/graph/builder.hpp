// Edge-list -> CSR construction with the clean-ups every generator needs.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace rs {

struct BuildOptions {
  /// Add the reverse arc of every triple (undirected graphs; the paper's
  /// setting). Reverse arcs carry the same weight.
  bool symmetrize = true;
  /// Drop u == v arcs (the paper assumes simple graphs).
  bool remove_self_loops = true;
  /// Collapse parallel arcs, keeping the minimum weight.
  bool dedup = true;
};

/// Builds a CSR graph on `n` vertices from arc triples. Adjacency lists come
/// out sorted by (target, weight), whatever the order of `triples`. A
/// counting sort buckets the arcs by source, then each bucket is sorted on
/// its own: O(m + sum_v d_v log d_v) work.
Graph build_graph(Vertex n, std::vector<EdgeTriple> triples,
                  const BuildOptions& opts = {});

/// Merges extra arcs (e.g. shortcut edges from preprocessing) into an
/// existing graph, symmetrizing and deduplicating by minimum weight.
Graph merge_edges(const Graph& g, std::vector<EdgeTriple> extra,
                  const BuildOptions& opts = {});

}  // namespace rs
