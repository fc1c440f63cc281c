// Radius-Stepping (Algorithm 1) — the paper's primary contribution.
//
// The "flat" engine here keeps tentative distances in an atomic array and
// writes Algorithm 1 once, as one step routine for worker t of a team of
// num_workers(). A team runs a query in one OpenMP region: each
// Bellman-Ford substep is a parallel edge-map with WriteMin, and the
// A_i/B_i partition, the step boundary d_i and the gather run on
// per-worker lists and distance buckets (the frontier;
// docs/ARCHITECTURE.md, "The bucketed frontier"), two barriers per
// substep. One worker runs the same routine on the calling thread with
// plain stores and no barriers. This is the engine a practical
// implementation uses (Algorithm 2's ordered-set form is the test
// reference in core/rs_bst.hpp and produces identical results).
//
// Given radii from preprocessing (r(v) = r_rho(v) on a (k, rho)-graph) the
// run obeys the paper's bounds: <= ceil(n/rho) * (1 + ceil(log2(rho * L)))
// steps (Theorem 3.3) and <= k + 2 substeps per step (Theorem 3.2).
//
// On a split graph (merge_edges' layout, see graph/graph.hpp) a vertex
// relaxes all of its original arcs but stops its weight-sorted shortcut
// scan at the first arc that lands beyond the step's d_i. Distances,
// steps and both bounds are unchanged (docs/ARCHITECTURE.md, "Why the
// answers are exact"); on an unsplit graph every arc is relaxed.
#pragma once

#include <vector>

#include "core/query_context.hpp"
#include "core/stats.hpp"
#include "graph/graph.hpp"

namespace rs {

/// Single-source shortest paths from `source`. `radius[v]` is the per-vertex
/// radius r(v); any nonnegative values are correct (see core/radii.hpp),
/// preprocessing radii give the bounded step counts.
std::vector<Dist> radius_stepping(const Graph& g, Vertex source,
                                  const std::vector<Dist>& radius,
                                  RunStats* stats = nullptr);

/// Context-reusing form: identical results, but all scratch state lives in
/// `ctx` (zero engine allocations once the context is warm) and distances
/// are written into `out`. At num_workers() == 1 — one worker, or a call
/// from inside any OpenMP region such as an outer source-parallel batch
/// or a server worker's — the whole query runs on the calling thread with
/// no atomic read-modify-writes and no OpenMP region. Always runs to
/// exhaustion (any stale target stamps are cleared).
void radius_stepping(const Graph& g, Vertex source,
                     const std::vector<Dist>& radius, QueryContext& ctx,
                     std::vector<Dist>& out, RunStats* stats = nullptr);

/// Serving primitive: runs the engine leaving tentative distances IN the
/// context — read the ones you need with ctx.read_dist(), then restore the
/// invariant with ctx.finish_query() or the O(touched) ctx.reset_touched()
/// (the engine records first-touches). Honors
/// ctx.has_targets(): a targeted run may stop at the first step boundary
/// where every stamped target is settled (targets are then exact; other
/// vertices hold upper bounds). SsspEngine::serve builds on this.
void radius_stepping_partial(const Graph& g, Vertex source,
                             const std::vector<Dist>& radius,
                             QueryContext& ctx, RunStats* stats = nullptr);

/// What a bidirectional run found: `dist` = d(source, target) (kInfDist
/// when unreachable) and the original arc (forward, backward) it was
/// found over. forward is settled in ctx.search() and backward in
/// ctx.backward(), both with exact distances, so a shortest path is the
/// forward search's closure to `forward`, then the backward search's
/// closure from `backward` reversed. Both are `target` when source ==
/// target, and kNoVertex when unreachable.
struct Meeting {
  Dist dist = kInfDist;
  Vertex forward = kNoVertex;
  Vertex backward = kNoVertex;
};

/// One-target serving primitive on a SYMMETRIC (k, rho)-graph whose
/// original arcs precede the shortcut segment (merge_edges' layout): two
/// radius-stepping searches on the same graph and radii,
/// forward from `source` in ctx.search() and backward from `target` in
/// ctx.backward(). Whole steps alternate, the side with fewer live
/// frontier vertices stepping next, until a frontier drains or the last
/// step radii d_f + d_b reach the best connection mu, lowered on original
/// arcs whose far end the other side has settled (docs/ARCHITECTURE.md,
/// "Bidirectional one-target exactness"). Always on the calling thread,
/// at any worker count. RunStats sum both searches; early_exit is set
/// only when the meeting rule stopped the run before either frontier
/// drained. Restore the context with ctx.reset_touched().
Meeting radius_stepping_meet(const Graph& g, Vertex source, Vertex target,
                             const std::vector<Dist>& radius,
                             QueryContext& ctx, RunStats* stats = nullptr);

}  // namespace rs
