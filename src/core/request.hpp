/// \file
/// The typed serving surface of SsspEngine: QueryRequest in,
/// QueryResponse out.
///
/// The paper's preprocessing cost is amortized over many queries (§5.4),
/// and most consumers of such a service — point-to-point routers,
/// reachability checks, k-nearest lookups — read a handful of targets per
/// request. A QueryRequest says exactly what the caller needs; the engine
/// then does only that much work:
///
///  * `targets` non-empty and `want_full_distances` false is the targeted
///    regime: the run terminates early, at the first step boundary where
///    every requested target is settled. Radius-Stepping settles vertices
///    in rounds of nondecreasing distance (Theorem 3.1: by the end of
///    step i every vertex with delta <= d_i is final), so the early exit
///    is EXACT — the per-target distances equal a full run's — while
///    executing a fraction of the rounds when the targets are near the
///    source.
///  * exactly ONE target on a shortcut engine (heuristic != kNone, so the
///    graph is symmetric): a second search runs backward from the
///    target, and the run stops at the first step boundary where the two
///    step radii reach the best connection found (radius_stepping_meet).
///    The distance is the same; the searches touch less than one search
///    from the source, RunStats sum both, and a path may differ where
///    shortest paths tie. Both searches run on the calling thread at any
///    worker count: at 4 workers they beat one intra-query parallel
///    search 14x on a web graph (n = 300k), whose single search scans
///    nearly every arc, and 1.5x on road n = 25.6k, and they take no
///    barriers, so cores that other work contends for do not stall them.
///  * the response is O(|targets|) space: per-target distances are read
///    straight out of the engine's working distance array (zero-copy —
///    the O(n) dist vector is neither copied nor allocated) and optional
///    paths are expanded by a targeted backward walk over the original
///    graph's in-arcs (the graph itself on a shortcut engine, whose graph
///    is symmetric; a kNone engine's transpose, built with it). The request
///    epilogue is O(touched), not O(n): the engine records first-touches
///    in its relax loop and the context resets exactly those entries
///    (QueryContext::reset_touched), so an early-terminated request does
///    work proportional to what it actually explored.
///  * `want_full_distances` requests the classic O(n) dist vector; it
///    disables early termination (a partial vector would not be the full
///    answer).
///
/// Every request runs Algorithm 1 (core/radius_stepping.hpp); Algorithm 2
/// survives only as the test reference in core/rs_bst.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "core/stats.hpp"
#include "graph/types.hpp"
#include "obs/trace.hpp"

namespace rs {

/// What a request asks for.
enum class RequestKind : std::uint8_t {
  /// Distances (and optionally paths) to the listed `targets`, or the full
  /// distance vector when `want_full_distances` — the classic regime.
  kTargets,
  /// The `k` vertices nearest to `source` (POI workloads). Served by the
  /// same step-boundary machinery: the run stops at the first boundary
  /// with at least k vertices settled; Theorem 3.1 makes every settled
  /// distance final and every unsettled true distance larger than the
  /// boundary radius, so the k smallest settled (dist, vertex) pairs are
  /// exactly the k nearest. Results arrive in nondecreasing (dist, vertex)
  /// order; fewer than k when fewer vertices are reachable.
  kTopK,
};

/// One serving request: distances (and optionally paths) from `source` to
/// `targets`, the `k` nearest vertices (kTopK), or the full distance
/// vector when `want_full_distances`.
struct QueryRequest {
  /// The SSSP source vertex; must be < num_vertices().
  Vertex source = kNoVertex;

  /// What is being asked: targeted distances (default) or k-nearest.
  RequestKind kind = RequestKind::kTargets;

  /// Vertices whose distances the caller wants (kTargets only; must be
  /// empty for kTopK). Order is preserved in the response (duplicates
  /// allowed; each occurrence is answered). Empty with
  /// `want_full_distances` unset still runs the query — useful only for
  /// its RunStats — but the natural targeted request lists 1..k targets
  /// and leaves `want_full_distances` off to get early termination.
  std::vector<Vertex> targets;

  /// kTopK: how many nearest vertices to return (>= 1). The source itself
  /// counts (it is the nearest vertex, at distance 0). Ignored for
  /// kTargets.
  std::uint32_t k = 0;

  /// Expand the shortest path for every reachable target (vertices of the
  /// ORIGINAL graph; shortcut edges never appear).
  bool want_paths = false;

  /// Fill QueryResponse::dist with distances to every vertex (O(n)).
  /// Forces a full run: early termination is disabled.
  bool want_full_distances = false;

  /// Trace this request: the engine takes per-phase clock readings into
  /// RunStats (relax/partition ns) and the server assembles a
  /// span breakdown into QueryResponse::trace. Normally set by the
  /// server's sampling knob (ServerOptions::trace_sample), not by hand.
  bool trace = false;
};

/// Per-result slice of a response — one layout for both request kinds:
/// kTargets fills one entry per requested target (request order);
/// kTopK fills the k nearest vertices in nondecreasing (dist, vertex)
/// order, `target` being the ranked vertex itself.
struct TargetResult {
  Vertex target = kNoVertex;  ///< The vertex this entry answers for.
  Dist dist = kInfDist;       ///< d(source, target); kInfDist == unreachable.
  /// source..target inclusive; empty when unreachable or !want_paths.
  /// For target == source the path is the single vertex {source}.
  std::vector<Vertex> path;
};

/// The answer to one QueryRequest; layout mirrors the request.
struct QueryResponse {
  /// Echo of QueryRequest::source.
  Vertex source = kNoVertex;
  /// kTargets: parallel to QueryRequest::targets (same order, same
  /// multiplicity). kTopK: the k nearest vertices, nearest first.
  std::vector<TargetResult> targets;
  /// Full distance vector; filled iff want_full_distances, else empty.
  std::vector<Dist> dist;
  /// Step/relaxation counters from the run that produced this answer.
  RunStats stats;

  // Provenance: where and when this answer came from.
  /// SsspEngine::graph_epoch() at serve time — the preprocessing
  /// generation the distances belong to. A consumer holding responses
  /// across a graph swap can tell stale answers apart.
  std::uint64_t graph_epoch = 0;
  /// True when the answer was read from a cached full-distance row
  /// (serve/result_cache.hpp) instead of running an engine.
  bool served_from_cache = false;

  /// Span breakdown of where this request's latency went; populated only
  /// when the request was traced (QueryRequest::trace — enabled==true
  /// then). Fixed-capacity POD: carrying it costs no allocation.
  obs::TraceBuffer trace;
};

}  // namespace rs
