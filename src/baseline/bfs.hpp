// Breadth-first search: the unweighted baseline (Radius-Stepping at rho = 1
// on an unweighted graph degenerates to level-synchronous BFS, which is how
// Table 5 computes its reduction factors).
#pragma once

#include <cstddef>
#include <vector>

#include "core/query_context.hpp"
#include "graph/graph.hpp"

namespace rs {

/// Sequential BFS hop distances (kInfDist when unreachable).
/// `rounds_out` receives the number of levels (= eccentricity of source).
std::vector<Dist> bfs(const Graph& g, Vertex source,
                      std::size_t* rounds_out = nullptr);

/// Context-reusing form: identical results, scratch state in `ctx`.
void bfs(const Graph& g, Vertex source, QueryContext& ctx,
         std::vector<Dist>& out, std::size_t* rounds_out = nullptr);

}  // namespace rs
