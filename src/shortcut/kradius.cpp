#include "shortcut/kradius.hpp"

#include <limits>

#include "shortcut/preprocess_context.hpp"

namespace rs {

namespace {

/// An unrestricted, whole-graph ball search over n vertices. The edge
/// limit must cover every arc of every vertex: use the max Vertex, not n —
/// a multigraph vertex can carry more than n parallel arcs.
BallOptions min_hop_tree(Vertex n) {
  return BallOptions{n, std::numeric_limits<Vertex>::max(), true};
}

/// Closest distance among the members of `tree` more than k hops out.
Dist k_radius_of(const Ball& tree, Vertex k) {
  Dist best = kInfDist;
  for (const BallVertex& bv : tree.vertices) {
    if (bv.hops > k && bv.dist < best) best = bv.dist;
  }
  return best;
}

}  // namespace

Dist k_radius_exact(const Graph& g, Vertex source, Vertex k) {
  const Vertex n = g.num_vertices();
  if (n == 0) return kInfDist;
  BallSearchWorkspace ws(n);
  return k_radius_of(
      ws.run(g.with_weight_sorted_adjacency(), source, min_hop_tree(n)), k);
}

std::vector<Dist> all_k_radii_exact(const Graph& g, Vertex k) {
  const Vertex n = g.num_vertices();
  std::vector<Dist> out(n, kInfDist);
  PreprocessPool pool;
  for_each_ball(g.with_weight_sorted_adjacency(), nullptr, n, min_hop_tree(n),
                pool, [&](PreprocessContext&, std::size_t v, const Ball& ball) {
                  out[v] = k_radius_of(ball, k);
                });
  return out;
}

bool is_k_rho_graph(const Graph& g, const std::vector<Dist>& radius, Vertex k) {
  const std::vector<Dist> kr = all_k_radii_exact(g, k);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (radius[v] > kr[v]) return false;
  }
  return true;
}

}  // namespace rs
