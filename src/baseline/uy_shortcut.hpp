// Ullman–Yannakakis-style randomized shortcutting (Section 6 of the paper;
// Ullman & Yannakakis 1991, extended to weights by Klein & Subramanian):
// the classic pre-Radius-Stepping technique for trading work for depth.
//
//   1. sample a hub set S of size `num_hubs` (plus the query source);
//   2. from every hub run Bellman–Ford limited to `hop_limit` rounds and
//      add shortcut edges hub -> reached vertices with the exact limited-
//      hop distances;
//   3. answer a query with a `hop_limit`-round Bellman–Ford on the
//      augmented graph.
//
// If every shortest path can be split into segments of at most `hop_limit`
// hops between consecutive hubs, the answer is exact; random hubs achieve
// that w.h.p. when num_hubs * hop_limit >~ n log n. This implementation
// exposes the knobs so benches can chart the exactness/work trade-off
// against Radius-Stepping's deterministic guarantee.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace rs {

struct UYShortcutResult {
  Graph graph;          // original + hub shortcut edges
  std::vector<Vertex> hubs;
  EdgeId added_edges = 0;
};

/// Builds the hub shortcut structure. `hop_limit = 0` picks
/// ceil(2 n ln n / num_hubs), the w.h.p. correctness setting. Throws
/// std::invalid_argument for a hub count outside [1, n] or a `g` that is
/// not symmetric (is_symmetric): the hub shortcuts are merged in both
/// directions.
UYShortcutResult uy_preprocess(const Graph& g, Vertex num_hubs,
                               std::uint64_t seed, std::size_t hop_limit = 0);

/// Hop-limited Bellman–Ford SSSP on the augmented graph. Exact whenever
/// every source-to-v shortest path decomposes into <= hop_limit segments
/// between hubs (always true for hop_limit >= n). `rounds_out` reports the
/// rounds actually used (early exit on convergence).
std::vector<Dist> uy_query(const UYShortcutResult& pre, Vertex source,
                           std::size_t hop_limit = 0,
                           std::size_t* rounds_out = nullptr);

}  // namespace rs
