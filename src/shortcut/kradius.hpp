// Exact k-radius computation — the O(nm)-work quantity the paper avoids
// computing directly (Section 4). Used as the test oracle validating that
// preprocessing really produces (k, rho)-graphs. Small graphs only: each
// source runs an unrestricted ball search, which settles every reachable
// vertex in (dist, hops) order and so is the min-hop shortest-path tree.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace rs {

/// Exact r̄_k(source): the closest distance to `source` among vertices whose
/// min-hop shortest path uses more than k edges (Definition 2); kInfDist if
/// no such vertex exists.
Dist k_radius_exact(const Graph& g, Vertex source, Vertex k);

/// r̄_k for all vertices (n single-source runs, through for_each_ball).
std::vector<Dist> all_k_radii_exact(const Graph& g, Vertex k);

/// Verifies the (k, rho)-graph property (Definition 4): r_rho(v) <= r̄_k(v)
/// for every v. `radius` must hold r_rho values measured on `g`.
bool is_k_rho_graph(const Graph& g, const std::vector<Dist>& radius, Vertex k);

}  // namespace rs
