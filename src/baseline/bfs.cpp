#include "baseline/bfs.hpp"

#include <atomic>

namespace rs {

std::vector<Dist> bfs(const Graph& g, Vertex source, std::size_t* rounds_out) {
  QueryContext ctx(g.num_vertices());
  std::vector<Dist> out;
  bfs(g, source, ctx, out, rounds_out);
  return out;
}

void bfs(const Graph& g, Vertex source, QueryContext& ctx,
         std::vector<Dist>& out, std::size_t* rounds_out) {
  const Vertex n = g.num_vertices();
  ctx.begin_query(n);
  std::atomic<Dist>* dist = ctx.dist();
  std::vector<Vertex>& frontier = ctx.frontier();
  std::vector<Vertex>& next = ctx.next();
  frontier.clear();
  frontier.push_back(source);
  dist[source].store(0, std::memory_order_relaxed);
  std::size_t rounds = 0;
  while (!frontier.empty()) {
    ++rounds;
    next.clear();
    for (const Vertex u : frontier) {
      const Dist du = dist[u].load(std::memory_order_relaxed);
      for (const Vertex v : g.neighbors(u)) {
        if (dist[v].load(std::memory_order_relaxed) == kInfDist) {
          dist[v].store(du + 1, std::memory_order_relaxed);
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
  // The last round is the empty expansion.
  if (rounds_out != nullptr) *rounds_out = rounds - 1;
  ctx.finish_query(n, out);
}

}  // namespace rs
