// Structural queries: connectivity, components, degree statistics,
// eccentricity estimates. Used for sanity checks, test oracles, and bench
// reporting.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace rs {

/// Component id per vertex, ids dense in [0, #components).
std::vector<Vertex> connected_components(const Graph& g);

bool is_connected(const Graph& g);

/// True when, for every pair u != v, the lightest u->v arc weighs the same
/// as the lightest v->u arc (a missing arc counts as infinitely heavy):
/// the graph is undirected as far as shortest paths can tell. Self-loops
/// are ignored. O(m log d) for maximum degree d.
bool is_symmetric(const Graph& g);

/// Induced subgraph of the largest connected component. `old_to_new` (if
/// non-null) receives the vertex mapping (kNoVertex for dropped vertices).
Graph largest_component(const Graph& g,
                        std::vector<Vertex>* old_to_new = nullptr);

struct DegreeStats {
  EdgeId min = 0;
  EdgeId max = 0;
  double mean = 0.0;
};
DegreeStats degree_stats(const Graph& g);

/// Hop eccentricity of `source` (longest BFS distance in its component).
Vertex bfs_eccentricity(const Graph& g, Vertex source);

/// Lower bound on hop diameter via a double BFS sweep from `source`.
Vertex approx_diameter(const Graph& g, Vertex source = 0);

}  // namespace rs
