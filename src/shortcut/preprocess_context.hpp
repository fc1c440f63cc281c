// PreprocessContext: reusable per-worker scratch state for the
// preprocessing pipeline — the shortcut-construction mirror of the serving
// path's QueryContext — and for_each_ball, the one parallel pass every
// n-ball computation runs through.
//
// Every preprocessing pass (r_rho radii, k-radius computation, the ball
// check behind radii_enclose_rho, shortcut construction, incremental
// re-preprocessing) runs the same per-ball inner loop: a truncated
// Dijkstra into a ball, then work on that ball, such as a selection pass
// over its shortest-path tree and an append of the chosen shortcut edges.
// Allocating that scratch per ball is what used to dominate the OpenMP
// loops (one vertex-list + one hash map + DP tables per ball). A
// PreprocessContext owns all of it once:
//
//  * the ball-search Dijkstra heap and the visited/settled stamp arrays
//    live in an embedded BallSearchWorkspace (lazily stamped — starting a
//    ball is an epoch bump, not an O(n) reset);
//  * the ball's vertex list, the selection scratch (tree CSR, DP tables,
//    global->local map), and the shortcut-edge staging buffer keep their
//    capacity across balls AND across graphs;
//  * capacity only grows (reserve() never shrinks), and every stamp family
//    is monotone, so one context can preprocess graphs of different sizes
//    back to back without stale-stamp bugs.
//
// A context is single-owner state: one ball at a time, no internal
// locking. for_each_ball hands each OpenMP worker its own context from a
// PreprocessPool — the same shape as the batch query scheduler. A warm
// context runs the per-ball loop with zero heap allocations, pinned by
// tests/test_alloc_free.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <omp.h>

#include "parallel/context_pool.hpp"
#include "parallel/primitives.hpp"
#include "shortcut/ball_search.hpp"
#include "shortcut/shortcut.hpp"

namespace rs {

class PreprocessContext {
 public:
  PreprocessContext() = default;
  explicit PreprocessContext(Vertex n) { reserve(n); }

  PreprocessContext(const PreprocessContext&) = delete;
  PreprocessContext& operator=(const PreprocessContext&) = delete;
  PreprocessContext(PreprocessContext&&) = default;
  PreprocessContext& operator=(PreprocessContext&&) = default;

  /// Grows every per-vertex buffer to cover `n` vertices; never shrinks.
  /// Called implicitly by ball() — explicit calls just pre-warm.
  void reserve(Vertex n) {
    workspace_.reserve(n);
    select_.reserve(n);
  }

  /// Runs the truncated-Dijkstra ball search for `source` into the
  /// context's reusable ball. The reference stays valid until the next
  /// ball() call on this context. `g` must have weight-sorted adjacency.
  const Ball& ball(const Graph& g, Vertex source, const BallOptions& opts) {
    workspace_.run(g, source, opts, ball_);
    return ball_;
  }

  /// Shortcut selection over `ball` with pooled scratch; returns the
  /// reusable index list (valid until the next select() call).
  const std::vector<std::uint32_t>& select(const Ball& ball, Vertex k,
                                           ShortcutHeuristic heuristic) {
    return select_shortcuts(ball, k, heuristic, select_);
  }

  /// Appends the shortcuts `options` selects for `ball` to `out`, as
  /// (ball.source, member, distance) triples. Returns false when a
  /// selected distance exceeds the Weight range; the caller throws
  /// std::overflow_error once it is outside any parallel region.
  bool append_shortcuts(const Ball& ball, const PreprocessOptions& options,
                        std::vector<EdgeTriple>& out);

  /// Per-worker shortcut-edge staging buffer, which preprocess() fills
  /// through append_shortcuts and drains after its pass.
  std::vector<EdgeTriple>& staging() { return staging_; }

 private:
  BallSearchWorkspace workspace_;
  Ball ball_;
  ShortcutSelectScratch select_;
  std::vector<EdgeTriple> staging_;
};

/// Per-worker context pool, mirroring the query-side
/// WorkerPool<QueryContext>. A long-lived owner (IncrementalPreprocessor)
/// keeps one so that every pass after the first runs on warm scratch.
using PreprocessPool = WorkerPool<PreprocessContext>;

/// The parallel ball pass: searches the ball of sources[i] under `opts`
/// for every i < count, or of vertex i when `sources` is null, and calls
/// f(ctx, i, ball) with the worker's own context from `pool`. Sources are
/// spread over num_workers() workers in dynamic chunks of 16; `f` runs
/// inside the OpenMP region, so it must not throw, and writes to slot i
/// of shared output are race-free. `gw` must have weight-sorted adjacency.
/// Throws std::invalid_argument for rho < 1 when there is a ball to
/// search, before the region opens.
template <typename F>
void for_each_ball(const Graph& gw, const Vertex* sources, std::size_t count,
                   const BallOptions& opts, PreprocessPool& pool, F&& f) {
  if (count == 0) return;
  if (opts.rho == 0) {
    throw std::invalid_argument("ball_search: rho must be >= 1");
  }
  const int nw = num_workers();
  pool.ensure(static_cast<std::size_t>(nw));
#pragma omp parallel num_threads(nw)
  {
    PreprocessContext& ctx =
        pool.at(static_cast<std::size_t>(omp_get_thread_num()));
    ctx.reserve(gw.num_vertices());
#pragma omp for schedule(dynamic, 16)
    for (std::int64_t si = 0; si < static_cast<std::int64_t>(count); ++si) {
      const auto i = static_cast<std::size_t>(si);
      const Vertex s = sources == nullptr ? static_cast<Vertex>(i) : sources[i];
      f(ctx, i, ctx.ball(gw, s, opts));
    }
  }
}

/// Assembles a PreprocessResult: `g` itself under kNone, otherwise `g`
/// merged with `shortcuts` (merge_edges), plus the radii, the options and
/// the edge accounting (added_edges, and added_factor = added_edges / m).
PreprocessResult finish_preprocess(const Graph& g,
                                   const PreprocessOptions& options,
                                   std::vector<Dist> radius,
                                   std::vector<EdgeTriple> shortcuts);

}  // namespace rs
