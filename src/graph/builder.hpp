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

/// Merges extra arcs (shortcut edges from preprocessing) into `g` and
/// returns a split graph (see Graph). The extra arcs are symmetrized and
/// cleaned as build_graph does by default; g's arcs are taken as they
/// are, lightest per target, self-loops dropped. The arc set is the
/// per-pair minimum over both. Each adjacency list holds:
///  * the original segment: g's arcs, sorted by target;
///  * the shortcut segment: the extra arcs, sorted by (weight, target).
/// No target appears in both. A pair present in both keeps the extra arc,
/// in the shortcut segment, only when it is strictly lighter; otherwise
/// the base arc stays and the extra arc is dropped. Throws
/// std::invalid_argument for an extra arc with an endpoint out of range.
///
/// Preconditions:
///  * `g` is symmetric (is_symmetric, graph/stats.hpp). Only the extra
///    arcs are symmetrized, so a directed `g` would gain reverse
///    shortcuts that its one-way arcs do not support. Every caller checks
///    it once per build: preprocess(), IncrementalPreprocessor and
///    preprocess_global through check_preprocess_input, and
///    uy_preprocess itself.
///  * No extra arc is lighter than the distance between its endpoints in
///    `g` — a shortcut weighs a path of `g`. Every shortest path then runs
///    over original arcs alone, which is what lets radius stepping skip
///    shortcut arcs beyond d_i and stay exact. All producers meet it: they
///    add ball or hop-limited distances.
///
/// Only the x extra arcs are bucketed, by a counting sort; g's lists are
/// read in place, twice (count, then write). A list in (target, weight)
/// order, as build_graph leaves it, is deduped linearly, and only a list
/// out of that order is sorted. Work O(n + m + sum_u x_u log x_u), x_u
/// being u's extra arcs (both directions), plus d_u log d_u for each
/// out-of-order list; each worker that meets an extra arc also allocates
/// an n-entry mark array.
Graph merge_edges(const Graph& g, std::vector<EdgeTriple> extra);

}  // namespace rs
