// Sequential Dijkstra — the work-efficiency yardstick every parallel SSSP
// in the paper is measured against, and the correctness oracle for all
// tests in this repository.
#pragma once

#include <vector>

#include "core/query_context.hpp"
#include "graph/graph.hpp"

namespace rs {

/// Shortest-path distances from `source` (kInfDist when unreachable).
/// Indexed 4-ary heap; O((n + m) log n).
std::vector<Dist> dijkstra(const Graph& g, Vertex source);

/// Context-reusing form: identical results; the distance array and the
/// heap live in `ctx`, so a warm context serves queries with zero heap
/// allocations in the engine.
void dijkstra(const Graph& g, Vertex source, QueryContext& ctx,
              std::vector<Dist>& out);

struct ShortestPathTreeResult {
  std::vector<Dist> dist;
  std::vector<Vertex> parent;  // kNoVertex for source / unreachable
  std::vector<Vertex> hops;    // hop length of the min-hop shortest path
};

/// Dijkstra that also returns a shortest-path tree. Among equal-distance
/// predecessors the minimum-hop one wins (relax on (dist, hops)
/// lexicographically), giving the tree the DP shortcut heuristic needs
/// (Section 4.2: "one where every path has the smallest hop count").
ShortestPathTreeResult dijkstra_min_hop_tree(const Graph& g, Vertex source);

/// Number of distinct finite distance values — what Dijkstra-with-batched-
/// extraction (Radius-Stepping at rho = 1) uses as its step count.
std::size_t count_distinct_distances(const std::vector<Dist>& dist);

}  // namespace rs
