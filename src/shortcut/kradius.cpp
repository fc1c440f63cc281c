#include "shortcut/kradius.hpp"

#include <limits>

#include <omp.h>

#include "parallel/primitives.hpp"

namespace rs {

Dist k_radius_exact(const Graph& g, Vertex source, Vertex k,
                    PreprocessContext& ctx) {
  const Vertex n = g.num_vertices();
  if (n == 0) return kInfDist;
  // An unrestricted, whole-graph ball search settles every reachable
  // vertex in (dist, hops) order — exactly the min-hop shortest-path tree
  // dijkstra_min_hop_tree builds, but on the context's reusable scratch.
  // The edge limit must cover every arc of every vertex: use the max
  // Vertex, not n — a multigraph vertex can carry more than n parallel
  // arcs.
  const BallOptions opts{n, std::numeric_limits<Vertex>::max(), true};
  const Ball& ball = ctx.ball(g, source, opts);
  Dist best = kInfDist;
  for (const BallVertex& bv : ball.vertices) {
    if (bv.hops > k && bv.dist < best) best = bv.dist;
  }
  return best;
}

Dist k_radius_exact(const Graph& g, Vertex source, Vertex k) {
  PreprocessContext ctx(g.num_vertices());
  return k_radius_exact(g.with_weight_sorted_adjacency(), source, k, ctx);
}

std::vector<Dist> all_k_radii_exact(const Graph& g, Vertex k,
                                    PreprocessPool& pool) {
  const Graph gw = g.with_weight_sorted_adjacency();
  const Vertex n = g.num_vertices();
  std::vector<Dist> out(n, kInfDist);
  const int nw = num_workers();
  pool.ensure(static_cast<std::size_t>(nw));
#pragma omp parallel num_threads(nw)
  {
    PreprocessContext& ctx =
        pool.at(static_cast<std::size_t>(omp_get_thread_num()));
    ctx.reserve(n);
#pragma omp for schedule(dynamic, 4)
    for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
      out[static_cast<std::size_t>(v)] =
          k_radius_exact(gw, static_cast<Vertex>(v), k, ctx);
    }
  }
  return out;
}

std::vector<Dist> all_k_radii_exact(const Graph& g, Vertex k) {
  PreprocessPool pool;
  return all_k_radii_exact(g, k, pool);
}

bool is_k_rho_graph(const Graph& g, const std::vector<Dist>& radius, Vertex k) {
  const std::vector<Dist> kr = all_k_radii_exact(g, k);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (radius[v] > kr[v]) return false;
  }
  return true;
}

}  // namespace rs
