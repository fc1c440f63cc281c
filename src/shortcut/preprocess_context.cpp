#include "shortcut/preprocess_context.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>

#include <omp.h>

#include "graph/builder.hpp"
#include "parallel/primitives.hpp"

namespace rs {

PreprocessResult preprocess(const Graph& g, const PreprocessOptions& options,
                            PreprocessPool& pool) {
  check_preprocess_input(g, options);
  const Vertex n = g.num_vertices();
  const Graph gw = g.with_weight_sorted_adjacency();

  PreprocessResult result;
  result.options = options;
  result.radius.assign(n, 0);

  const int nw = num_workers();
  pool.ensure(static_cast<std::size_t>(nw));
  // Clear every slot's staging (capacity kept), not just the nw used this
  // run: a pool warmed at a higher worker count must not leak stale edges.
  for (std::size_t w = 0; w < pool.size(); ++w) pool.at(w).staging().clear();

  const BallOptions ball_opts{options.rho, 0, options.settle_ties};
  // Exceptions may not escape an OpenMP region: record overflow in a flag
  // and throw after the join instead of aborting the process.
  std::atomic<bool> overflow{false};
#pragma omp parallel num_threads(nw)
  {
    PreprocessContext& ctx =
        pool.at(static_cast<std::size_t>(omp_get_thread_num()));
    ctx.reserve(n);
    auto& mine = ctx.staging();
#pragma omp for schedule(dynamic, 16)
    for (std::int64_t sv = 0; sv < static_cast<std::int64_t>(n); ++sv) {
      const Vertex s = static_cast<Vertex>(sv);
      const Ball& ball = ctx.ball(gw, s, ball_opts);
      result.radius[s] = ball.radius;
      for (const std::uint32_t idx :
           ctx.select(ball, options.k, options.heuristic)) {
        const BallVertex& bv = ball.vertices[idx];
        if (bv.dist > std::numeric_limits<Weight>::max()) {
          overflow.store(true, std::memory_order_relaxed);
          continue;
        }
        mine.push_back(EdgeTriple{s, bv.v, static_cast<Weight>(bv.dist)});
      }
    }
  }
  if (overflow.load()) {
    for (std::size_t w = 0; w < pool.size(); ++w) pool.at(w).staging().clear();
    throw std::overflow_error("preprocess: shortcut weight overflow");
  }

  // Drain: each worker copies its own staging buffer to its prefix offset.
  const std::size_t slots = pool.size();
  std::vector<std::size_t> offset(slots + 1, 0);
  for (std::size_t w = 0; w < slots; ++w) {
    offset[w + 1] = offset[w] + pool.at(w).staging().size();
  }
  std::vector<EdgeTriple> all(offset[slots]);
#pragma omp parallel for schedule(static, 1) num_threads(nw)
  for (std::int64_t w = 0; w < static_cast<std::int64_t>(slots); ++w) {
    auto& mine = pool.at(static_cast<std::size_t>(w)).staging();
    std::copy(mine.begin(), mine.end(),
              all.begin() + static_cast<std::ptrdiff_t>(offset[w]));
    mine.clear();  // keeps capacity: the pool stays warm for the next run
  }

  const EdgeId before = g.num_undirected_edges();
  result.graph = (options.heuristic == ShortcutHeuristic::kNone)
                     ? g
                     : merge_edges(g, std::move(all));
  result.added_edges = result.graph.num_undirected_edges() - before;
  result.added_factor =
      before == 0 ? 0.0
                  : static_cast<double>(result.added_edges) /
                        static_cast<double>(before);
  return result;
}

std::vector<Dist> all_radii(const Graph& g, Vertex rho) {
  PreprocessPool pool;
  return all_radii(g, rho, pool);
}

std::vector<Dist> all_radii(const Graph& g, Vertex rho, PreprocessPool& pool) {
  const Graph gw = g.with_weight_sorted_adjacency();
  const Vertex n = g.num_vertices();
  std::vector<Dist> radius(n, 0);
  // Radii only: the tie class never affects r_rho, so stop at the rho-th
  // pop (far cheaper on unweighted hub graphs than the full §5.1 protocol).
  const BallOptions opts{rho, 0, /*settle_ties=*/false};
  const int nw = num_workers();
  pool.ensure(static_cast<std::size_t>(nw));
#pragma omp parallel num_threads(nw)
  {
    PreprocessContext& ctx =
        pool.at(static_cast<std::size_t>(omp_get_thread_num()));
    ctx.reserve(n);
#pragma omp for schedule(dynamic, 16)
    for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
      radius[static_cast<std::size_t>(v)] =
          ctx.ball(gw, static_cast<Vertex>(v), opts).radius;
    }
  }
  return radius;
}

}  // namespace rs
