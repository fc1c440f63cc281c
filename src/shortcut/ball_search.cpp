#include "shortcut/ball_search.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>

#include "shortcut/preprocess_context.hpp"

namespace rs {

void BallSearchWorkspace::reserve(Vertex n) {
  if (n <= capacity()) return;
  parent_.resize(n, kNoVertex);
  stamp_.resize(n, 0);  // 0 != epoch_ once any search ran: entries are fresh
  heap_.reserve(n);
}

void BallSearchWorkspace::run(const Graph& g, Vertex source,
                              const BallOptions& opts, Ball& out) {
  const Vertex rho = opts.rho;
  if (rho == 0) throw std::invalid_argument("ball_search: rho must be >= 1");
  const Vertex edge_limit = opts.edge_limit == 0 ? rho : opts.edge_limit;
  reserve(g.num_vertices());
  ++epoch_;
  if (epoch_ == 0) {  // stamp wrap: force-reset once every 2^32 searches
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  heap_.clear();
  bound_.clear();

  Ball& ball = out;
  ball.source = source;
  ball.vertices.clear();  // keeps capacity: warm reruns don't reallocate
  ball.radius = 0;
  ball.arcs_scanned = 0;
  // Capped at n: a ball never holds more vertices, and rho may be near 2^32.
  ball.vertices.reserve(std::min<std::size_t>(rho, g.num_vertices()) + 4);

  // B (see the header): unbounded until rho vertices have been touched.
  Dist bound = std::numeric_limits<Dist>::max();
  Dist r_rho = 0;
  bool radius_fixed = false;
  // First touch of a vertex at distance d: records it and reports d to the
  // bound heap while r_rho is still open.
  auto touch = [&](Vertex v, const Key& key, Vertex p) {
    parent_[v] = p;
    stamp_[v] = epoch_;
    heap_.insert_or_decrease(v, key);
    if (radius_fixed) return;
    if (bound_.size() < rho) {
      bound_.push_back(key.d);
      std::push_heap(bound_.begin(), bound_.end());
    } else if (key.d < bound_.front()) {
      std::pop_heap(bound_.begin(), bound_.end());
      bound_.back() = key.d;
      std::push_heap(bound_.begin(), bound_.end());
    }
    if (bound_.size() == rho) bound = bound_.front();
  };
  touch(source, Key{0, 0, source}, kNoVertex);

  while (!heap_.empty()) {
    const auto [key, u] = heap_.min();
    if (radius_fixed && key.d > r_rho) break;
    heap_.extract_min();
    ball.vertices.push_back(BallVertex{u, key.d, key.h, parent_[u]});
    if (!radius_fixed && ball.vertices.size() >= rho) {
      r_rho = key.d;
      radius_fixed = true;
      bound = r_rho;
      if (!opts.settle_ties) break;  // exactly-rho variant: stop here
    }
    const EdgeId lo = g.first_arc(u);
    const EdgeId hi =
        std::min(g.last_arc(u), lo + static_cast<EdgeId>(edge_limit));
    for (EdgeId e = lo; e < hi; ++e) {
      ++ball.arcs_scanned;
      const Dist d = key.d + g.arc_weight(e);
      if (d > bound) break;  // so is every later (heavier) arc of u
      const Vertex v = g.arc_target(e);
      const Key cand{d, static_cast<Vertex>(key.h + 1), v};
      if (fresh(v)) {
        touch(v, cand, u);
      } else if (heap_.contains(v) && cand < heap_.key_of(v)) {
        parent_[v] = u;
        heap_.insert_or_decrease(v, cand);
      }
      // Settled vertices (stamped, not in heap) are final: skip.
    }
  }
  ball.radius = radius_fixed ? r_rho
                             : (ball.vertices.empty()
                                    ? 0
                                    : ball.vertices.back().dist);
  heap_.clear();
}

Ball ball_search(const Graph& g, Vertex source, Vertex rho, Vertex edge_limit) {
  BallSearchWorkspace ws(g.num_vertices());
  return ws.run(g, source, rho, edge_limit);
}

std::vector<Dist> all_radii(const Graph& g, Vertex rho) {
  const Vertex n = g.num_vertices();
  std::vector<Dist> radius(n, 0);
  PreprocessPool pool;
  // Radii only: the tie class never affects r_rho, so stop at the rho-th
  // pop (far cheaper on unweighted hub graphs than the full §5.1 protocol).
  for_each_ball(g.with_weight_sorted_adjacency(), nullptr, n,
                BallOptions{rho, 0, /*settle_ties=*/false}, pool,
                [&](PreprocessContext&, std::size_t v, const Ball& ball) {
                  radius[v] = ball.radius;
                });
  return radius;
}

bool radii_enclose_rho(const Graph& g, const std::vector<Dist>& radius,
                       Vertex rho) {
  const Vertex n = g.num_vertices();
  if (radius.size() != n) return false;
  std::atomic<bool> ok{true};
  PreprocessPool pool;
  // Unrestricted edge limit (max Vertex, not n — multigraph vertices can
  // carry more than n parallel arcs): the check must count the true ball,
  // and settle_ties makes the count include the whole boundary class.
  for_each_ball(g.with_weight_sorted_adjacency(), nullptr, n,
                BallOptions{rho, std::numeric_limits<Vertex>::max(),
                            /*settle_ties=*/true},
                pool, [&](PreprocessContext&, std::size_t v, const Ball& ball) {
                  // Members within radius[v]:
                  std::size_t inside = 0;
                  for (const BallVertex& bv : ball.vertices) {
                    if (bv.dist <= radius[v]) ++inside;
                  }
                  if (inside < rho) ok.store(false, std::memory_order_relaxed);
                });
  return ok.load();
}

}  // namespace rs
