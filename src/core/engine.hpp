/// \file
/// SsspEngine: the batteries-included entry point a downstream application
/// uses. Owns the preprocessed (k, rho)-graph and radii and serves typed
/// QueryRequests (core/request.hpp) with the flat radius-stepping engine.
///
/// \code
///   SsspEngine engine(graph, PreprocessOptions{});  // rho 32, k 9, kDP
///   QueryRequest req;
///   req.source = s;
///   req.targets = {a, b, c};   // early termination: exits once a, b, c
///   req.want_paths = true;     // expanded original-graph paths
///   QueryResponse resp = engine.serve(req);
/// \endcode
///
/// Serving hot path: serve() with a caller-owned QueryContext (and a
/// reused QueryResponse) answers warm targeted requests with zero heap
/// allocations; serve_batch() with a caller-owned WorkerPool runs the
/// multi-source regime preprocessing is amortized over (§5.4) with
/// two-level parallelism — request-parallel across the pool's per-worker
/// contexts when the batch is at least as wide as the worker count,
/// intra-query parallelism otherwise.
///
/// An engine is an immutable value: it holds no scratch and builds
/// nothing lazily, so any number of callers serve from one engine at once,
/// and a context or pool warmed on one engine serves its successors (the
/// same vertices, new weights) warm.
/// Dynamic graphs: a live deployment wraps each engine in a shared_ptr,
/// serves through SnapshotSwap pins (graph/graph_swap.hpp), and produces
/// successors with next_epoch() — the epoch stamp keeps cache
/// invalidation exact across swaps.
#pragma once

#include <cstdint>
#include <vector>

#include "core/query_context.hpp"
#include "core/request.hpp"
#include "core/stats.hpp"
#include "graph/graph.hpp"
#include "parallel/context_pool.hpp"
#include "shortcut/shortcut.hpp"

namespace rs {

/// Radius-Stepping SSSP engine over one preprocessed (k, rho)-graph
/// snapshot (see file comment for the serving model).
class SsspEngine {
 public:
  /// Preprocesses `g` (ball searches + shortcuts per `opts`). The original
  /// graph is kept for path reconstruction so paths never use shortcut
  /// edges.
  SsspEngine(Graph g, const PreprocessOptions& opts);

  /// Wraps an existing preprocessing result (e.g. loaded from disk).
  /// Unless pre.options.heuristic is kNone, `original` must pass
  /// is_symmetric (graph/stats.hpp), as preprocess() and
  /// IncrementalPreprocessor check: path walks read its arcs as its
  /// in-arcs, and one-target requests search backward from the target
  /// over it. Only vertex counts are checked here. A hand-built result
  /// over a directed graph must set kNone (PreprocessResult{} says kDP).
  SsspEngine(Graph original, PreprocessResult pre);

  /// Builds the successor snapshot of `prior` for a graph swap: a fresh
  /// engine over (original, pre) whose graph_epoch() is
  /// prior.graph_epoch() + 1. `prior` is not touched — it keeps serving
  /// until the caller publishes the successor (e.g. via
  /// SsspServer::swap_engine) and the last reader unpins it. This is the
  /// one graph-swap path: an engine never changes its graph in place.
  /// (original, pre) must meet the (Graph, PreprocessResult)
  /// constructor's symmetry requirement.
  static SsspEngine next_epoch(const SsspEngine& prior, Graph original,
                               PreprocessResult pre);

  /// Serves one request (semantics in core/request.hpp): per-target
  /// distances — and optional expanded paths — in O(|targets|) space,
  /// with early termination once every target is settled; or the full
  /// distance vector when asked. Validates source, targets and top-k
  /// fields (std::invalid_argument). This overload allocates fresh
  /// per-request state; use the QueryContext form on the serving path.
  QueryResponse serve(const QueryRequest& req) const;

  /// Same over a caller-owned reusable context: the engine hot path
  /// performs no heap allocations once the context is warm (the returned
  /// response is the one unavoidable output allocation).
  QueryResponse serve(const QueryRequest& req, QueryContext& ctx) const;

  /// Lowest-level form: writes into `resp`, reusing its capacity. A warm
  /// context + reused response serves targeted requests with ZERO heap
  /// allocations (pinned by tests/test_alloc_free.cpp).
  void serve(const QueryRequest& req, QueryContext& ctx,
             QueryResponse& resp) const;

  /// One response per request, in input order. Requests may mix sources,
  /// target sets, kinds and flags.
  ///
  /// Scheduling: with W workers and B requests, B >= W runs
  /// request-parallel (one query per worker, on that worker alone, with
  /// that worker's context from `pool`); B < W keeps the batch loop
  /// sequential on pool.at(0) and lets each query use intra-query
  /// parallelism.
  ///
  /// Contract: bit-identical (distances, paths, RunStats) to per-request
  /// serve() at one worker whenever the batch runs each query on one
  /// worker: W == 1 or B >= W. A one-target request on a shortcut engine
  /// runs on the calling thread at any worker count (core/request.hpp),
  /// so it is bit-identical to serve() whatever W and B are.
  ///
  /// `pool` is the caller's, like serve()'s context: one batch at a time
  /// per pool. A warm pool builds no contexts, on this engine or on any
  /// engine over no more vertices, such as a successor from next_epoch().
  /// Concurrent batches on one engine each bring their own pool.
  std::vector<QueryResponse> serve_batch(
      const std::vector<QueryRequest>& requests,
      WorkerPool<QueryContext>& pool) const;

  /// Same over a fresh pool: every call builds its contexts. Use the pool
  /// form on the serving path.
  std::vector<QueryResponse> serve_batch(
      const std::vector<QueryRequest>& requests) const;

  /// Throws std::invalid_argument unless the source, every target and
  /// the top-k fields are valid for this preprocessing. serve/serve_batch
  /// call it implicitly; admission layers (serve/server.hpp) call it at
  /// accept time so a bad request is rejected before it is queued.
  void validate(const QueryRequest& req) const;

  /// The input graph (no shortcuts) — the one paths are expressed in.
  const Graph& original_graph() const { return original_; }
  /// The (k, rho)-graph queries actually run on (original + shortcuts).
  const Graph& preprocessed_graph() const { return pre_.graph; }
  /// Full preprocessing artifact: graph, radii, options, edge accounting.
  const PreprocessResult& preprocessing() const { return pre_; }

  /// Preprocessing generation this engine is serving. Starts at 1 and is
  /// bumped by every next_epoch(); responses are stamped with it
  /// (QueryResponse::graph_epoch), and the result cache
  /// (serve/result_cache.hpp) keys on it so a graph swap implicitly
  /// invalidates every cached row. Copies keep the epoch: they serve the
  /// same preprocessing, so their answers are interchangeable with the
  /// original's.
  std::uint64_t graph_epoch() const { return graph_epoch_; }

 private:
  /// Request execution into `resp`. Validation must have happened already
  /// — this is the noexcept-in-practice body run inside parallel regions.
  void run_serve(const QueryRequest& req, QueryContext& ctx,
                 QueryResponse& resp) const;

  /// run_serve's one-target form on a shortcut engine, on the calling
  /// thread: a forward and a backward search that meet
  /// (radius_stepping_meet). The answer is the meeting's distance; a path
  /// is the forward closure to the meeting arc, then the backward closure
  /// from it, written into the response's own path buffer.
  void serve_meet(const QueryRequest& req, QueryContext& ctx,
                  QueryResponse& resp) const;

  /// The graph whose out-arcs are the original graph's in-arcs, which
  /// path walks read (extract_path_by_closure): transpose_ on a kNone
  /// engine, whose graph may be directed, and the symmetric original
  /// graph itself on a shortcut engine.
  const Graph& path_graph() const;

  Graph original_;
  PreprocessResult pre_;
  // original_.transposed() on a kNone engine, built with the engine;
  // empty on a shortcut engine.
  Graph transpose_;
  // Set once, at construction (next_epoch bumps the successor's).
  std::uint64_t graph_epoch_ = 1;
};

}  // namespace rs
