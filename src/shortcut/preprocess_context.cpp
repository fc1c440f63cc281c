#include "shortcut/preprocess_context.hpp"

#include <atomic>
#include <limits>
#include <stdexcept>
#include <utility>

#include "graph/builder.hpp"

namespace rs {

bool PreprocessContext::append_shortcuts(const Ball& ball,
                                         const PreprocessOptions& options,
                                         std::vector<EdgeTriple>& out) {
  for (const std::uint32_t idx :
       select(ball, options.k, options.heuristic)) {
    const BallVertex& bv = ball.vertices[idx];
    if (bv.dist > std::numeric_limits<Weight>::max()) return false;
    out.push_back(EdgeTriple{ball.source, bv.v, static_cast<Weight>(bv.dist)});
  }
  return true;
}

PreprocessResult finish_preprocess(const Graph& g,
                                   const PreprocessOptions& options,
                                   std::vector<Dist> radius,
                                   std::vector<EdgeTriple> shortcuts) {
  PreprocessResult result;
  result.graph = options.heuristic == ShortcutHeuristic::kNone
                     ? g
                     : merge_edges(g, std::move(shortcuts));
  result.radius = std::move(radius);
  const EdgeId before = g.num_undirected_edges();
  result.added_edges = result.graph.num_undirected_edges() - before;
  result.added_factor =
      before == 0 ? 0.0
                  : static_cast<double>(result.added_edges) /
                        static_cast<double>(before);
  result.options = options;
  return result;
}

PreprocessResult preprocess(const Graph& g, const PreprocessOptions& options) {
  check_preprocess_input(g, options);
  const Vertex n = g.num_vertices();
  const Graph gw = g.with_weight_sorted_adjacency();
  std::vector<Dist> radius(n, 0);
  PreprocessPool pool;
  // Exceptions may not escape an OpenMP region: record overflow in a flag
  // and throw after the pass instead of aborting the process.
  std::atomic<bool> overflow{false};
  for_each_ball(gw, nullptr, n,
                BallOptions{options.rho, 0, options.settle_ties}, pool,
                [&](PreprocessContext& ctx, std::size_t s, const Ball& ball) {
                  radius[s] = ball.radius;
                  if (!ctx.append_shortcuts(ball, options, ctx.staging())) {
                    overflow.store(true, std::memory_order_relaxed);
                  }
                });
  if (overflow.load()) {
    throw std::overflow_error("preprocess: shortcut weight overflow");
  }
  std::size_t total = 0;
  for (std::size_t w = 0; w < pool.size(); ++w) {
    total += pool.at(w).staging().size();
  }
  std::vector<EdgeTriple> shortcuts;
  shortcuts.reserve(total);
  for (std::size_t w = 0; w < pool.size(); ++w) {
    const auto& staged = pool.at(w).staging();
    shortcuts.insert(shortcuts.end(), staged.begin(), staged.end());
  }
  return finish_preprocess(g, options, std::move(radius),
                           std::move(shortcuts));
}

}  // namespace rs
