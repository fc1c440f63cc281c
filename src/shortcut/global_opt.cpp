#include "shortcut/global_opt.hpp"

#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "shortcut/preprocess_context.hpp"

namespace rs {

namespace {

/// Committed shortcut edges, addressable from both endpoints.
class ExtraEdges {
 public:
  explicit ExtraEdges(Vertex n) : adj_(n) {}

  void add(Vertex u, Vertex v, Weight w) {
    adj_[u].push_back({v, w});
    adj_[v].push_back({u, w});
    triples_.push_back({u, v, w});
  }

  const std::vector<std::pair<Vertex, Weight>>& of(Vertex v) const {
    return adj_[v];
  }

  std::vector<EdgeTriple> take_triples() { return std::move(triples_); }

 private:
  std::vector<std::vector<std::pair<Vertex, Weight>>> adj_;
  std::vector<EdgeTriple> triples_;
};

}  // namespace

PreprocessResult preprocess_global(const Graph& g,
                                   const PreprocessOptions& options) {
  // The cover rule adds shortcuts whatever options.heuristic names, so the
  // graph is checked, and the result assembled, as for a heuristic that
  // adds them; the result still reports the caller's options.
  PreprocessOptions checked = options;
  checked.heuristic = ShortcutHeuristic::kDP;
  check_preprocess_input(g, checked);
  const Vertex n = g.num_vertices();
  const Vertex k = options.k;
  const Graph gw = g.with_weight_sorted_adjacency();

  std::vector<Dist> radius(n, 0);

  ExtraEdges extra(n);
  PreprocessContext ctx(n);
  const BallOptions ball_opts{options.rho, 0, options.settle_ties};

  // Scratch: global vertex -> position in the current ball (stamped), plus
  // the per-ball hop/pred arrays — all hoisted so the source loop performs
  // no per-ball allocations beyond the committed-edge growth.
  std::vector<std::uint32_t> pos(n, 0);
  std::vector<std::uint32_t> pos_stamp(n, 0);
  std::uint32_t stamp = 0;
  std::vector<Vertex> hop;
  std::vector<std::uint32_t> pred;

  for (Vertex s = 0; s < n; ++s) {
    const Ball& ball = ctx.ball(gw, s, ball_opts);
    radius[s] = ball.radius;
    const std::size_t b = ball.vertices.size();
    ++stamp;
    for (std::size_t i = 0; i < b; ++i) {
      pos[ball.vertices[i].v] = static_cast<std::uint32_t>(i);
      pos_stamp[ball.vertices[i].v] = stamp;
    }
    auto in_ball = [&](Vertex v) { return pos_stamp[v] == stamp; };

    // Hop depth of each member along shortest paths, using original AND
    // committed edges. Members are in settle order, so every shortest-path
    // predecessor (strictly smaller distance; weights >= 1) is already
    // labelled. hop[i] also tracks the argmin predecessor for the cover
    // rule's climb.
    hop.assign(b, 0);
    pred.assign(b, 0);
    for (std::size_t i = 1; i < b; ++i) {
      const BallVertex& bv = ball.vertices[i];
      Vertex best_hop = std::numeric_limits<Vertex>::max();
      std::uint32_t best_pred = 0;
      auto consider = [&](Vertex u, Weight w) {
        if (!in_ball(u)) return;
        const std::uint32_t pi = pos[u];
        if (pi >= i) return;  // only settled-earlier members are final
        if (ball.vertices[pi].dist + w != bv.dist) return;
        if (hop[pi] + 1 < best_hop) {
          best_hop = hop[pi] + 1;
          best_pred = pi;
        }
      };
      for (EdgeId e = g.first_arc(bv.v); e < g.last_arc(bv.v); ++e) {
        consider(g.arc_target(e), g.arc_weight(e));
      }
      for (const auto& [u, w] : extra.of(bv.v)) consider(u, w);

      const bool orphan = best_hop == std::numeric_limits<Vertex>::max();
      // `orphan` is possible only under the exactly-rho tie variant, where
      // a same-distance predecessor may have been cut from the ball.
      hop[i] = orphan ? k + 1 : best_hop;
      pred[i] = best_pred;

      if (hop[i] > k) {
        // Cover rule: shortcut the ancestor at depth k on the min-hop
        // chain, resetting it to depth 1 (this vertex then sits at depth
        // 2, and the whole sibling fan below that ancestor is fixed for
        // free). For k == 1 — or when no usable chain exists — depth 2 is
        // already too deep, so shortcut the vertex itself.
        std::uint32_t a = static_cast<std::uint32_t>(i);
        if (k > 1 && !orphan) {
          a = pred[i];  // hop[pred] == hop[i] - 1 == k exactly
        }
        const BallVertex& target = ball.vertices[a];
        if (target.dist > std::numeric_limits<Weight>::max()) {
          throw std::overflow_error("preprocess_global: weight overflow");
        }
        extra.add(s, target.v, static_cast<Weight>(target.dist));
        hop[a] = 1;
        if (a != static_cast<std::uint32_t>(i)) hop[i] = 2;
      }
    }
  }

  PreprocessResult result =
      finish_preprocess(g, checked, std::move(radius), extra.take_triples());
  result.options = options;
  return result;
}

}  // namespace rs
