// Exact k-radius computation — the O(nm)-work quantity the paper avoids
// computing directly (Section 4). Used as the test oracle validating that
// preprocessing really produces (k, rho)-graphs. Small graphs only.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "shortcut/preprocess_context.hpp"

namespace rs {

/// Exact r̄_k(source): the closest distance to `source` among vertices whose
/// min-hop shortest path uses more than k edges (Definition 2); kInfDist if
/// no such vertex exists.
Dist k_radius_exact(const Graph& g, Vertex source, Vertex k);

/// Context-reusing form: the full min-hop search runs on `ctx`'s ball
/// scratch (an unrestricted ball search IS the min-hop Dijkstra tree), so
/// n-source sweeps perform no per-source allocations once warm. `g` must
/// have weight-sorted adjacency, like every ball search; the other forms
/// sort their input themselves.
Dist k_radius_exact(const Graph& g, Vertex source, Vertex k,
                    PreprocessContext& ctx);

/// r̄_k for all vertices (n single-source runs, parallelized).
std::vector<Dist> all_k_radii_exact(const Graph& g, Vertex k);

/// Pooled form: per-worker search state drawn from `pool`.
std::vector<Dist> all_k_radii_exact(const Graph& g, Vertex k,
                                    PreprocessPool& pool);

/// Verifies the (k, rho)-graph property (Definition 4): r_rho(v) <= r̄_k(v)
/// for every v. `radius` must hold r_rho values measured on `g`.
bool is_k_rho_graph(const Graph& g, const std::vector<Dist>& radius, Vertex k);

}  // namespace rs
