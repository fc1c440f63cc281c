// PreprocessContext: reusable per-worker scratch state for the
// preprocessing pipeline — the shortcut-construction mirror of the serving
// path's QueryContext.
//
// Every preprocessing pass (k-radius computation, limited ball search,
// shortcut construction) runs the same per-ball inner loop: a truncated
// Dijkstra into a ball, a selection pass over the ball's shortest-path
// tree, and a staging append of the chosen shortcut edges.
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
// locking. Parallel preprocessing hands each OpenMP worker its own context
// from a WorkerPool<PreprocessContext> (see preprocess() below) — the same
// shape as the batch query scheduler. Steady state (the second run on a
// warm pool) performs zero heap allocations per ball, pinned by
// tests/test_alloc_free.cpp.
#pragma once

#include <vector>

#include "parallel/context_pool.hpp"
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

  /// Largest vertex count this context is warmed up for.
  Vertex capacity() const { return workspace_.capacity(); }

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

  /// Per-worker shortcut-edge staging buffer. preprocess() clears it
  /// (keeping capacity) at the start of a run and drains it at the end.
  std::vector<EdgeTriple>& staging() { return staging_; }

  /// Direct access to the embedded ball-search workspace (heap + stamp
  /// arrays) for callers that manage their own Ball storage.
  BallSearchWorkspace& workspace() { return workspace_; }

 private:
  BallSearchWorkspace workspace_;
  Ball ball_;
  ShortcutSelectScratch select_;
  std::vector<EdgeTriple> staging_;
};

/// Per-worker context pool, mirroring the query-side
/// WorkerPool<QueryContext>. ensure() before the parallel region; inside
/// it each worker touches only its own slot.
using PreprocessPool = WorkerPool<PreprocessContext>;

/// Pooled preprocess(): identical output to the plain overload, but all
/// per-ball scratch is drawn from `pool` (grown to num_workers() slots).
/// The second run on a warm pool performs zero heap allocations per ball.
PreprocessResult preprocess(const Graph& g, const PreprocessOptions& options,
                            PreprocessPool& pool);

/// Pooled all_radii(): rho-nearest radii with ball scratch from `pool`.
std::vector<Dist> all_radii(const Graph& g, Vertex rho, PreprocessPool& pool);

}  // namespace rs
