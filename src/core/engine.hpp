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
/// allocations; serve_batch() runs the multi-source regime preprocessing
/// is amortized over (§5.4) with two-level parallelism —
/// request-parallel across a per-worker context pool when the batch is at
/// least as wide as the worker count, intra-query parallelism otherwise.
///
/// Dynamic graphs: engines are immutable-after-publish snapshots. A live
/// deployment wraps each engine in a shared_ptr, serves through
/// SnapshotSwap pins (graph/graph_swap.hpp), and produces successors with
/// next_epoch() — the epoch stamp keeps cache invalidation exact across
/// swaps.
#pragma once

#include <deque>
#include <memory>
#include <mutex>
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

  /// Copies keep the epoch but get their own (cold) context pool and
  /// (kNone) transpose cache.
  SsspEngine(const SsspEngine& other);
  /// Copy assignment: same rules as the copy constructor.
  SsspEngine& operator=(const SsspEngine& other);
  /// Moves transfer the warm pool with the engine.
  SsspEngine(SsspEngine&&) = default;
  /// Move assignment: transfers the warm pool with the engine.
  SsspEngine& operator=(SsspEngine&&) = default;

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
  /// contexts from an internal per-worker pool); B < W keeps the batch
  /// loop sequential and lets each query use intra-query parallelism.
  ///
  /// Contract: bit-identical (distances, paths, RunStats) to per-request
  /// serve() at one worker whenever the batch runs each query on one
  /// worker: W == 1 or B >= W. A one-target request on a shortcut engine
  /// runs on the calling thread at any worker count (core/request.hpp),
  /// so it is bit-identical to serve() whatever W and B are.
  ///
  /// Thread-safe: each concurrent batch leases its own warm context-pool
  /// slot (the slot set grows to the peak concurrency and stays warm), so
  /// a serving daemon running parallel micro-batches never re-pays
  /// context construction. Path reconstruction shares one path graph
  /// (path_graph(); a kNone engine's cached transpose is built once,
  /// before the parallel region).
  std::vector<QueryResponse> serve_batch(
      const std::vector<QueryRequest>& requests) const;

  /// Throws std::invalid_argument unless the source, every target and
  /// the top-k fields are valid for this preprocessing. serve/serve_batch
  /// call it implicitly; admission layers (serve/server.hpp) call it at
  /// accept time so one bad request is rejected on its own instead of
  /// failing the micro-batch it would have been coalesced into.
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
  /// `in_arcs` (path_graph()) must be non-null when req.want_paths.
  void run_serve(const QueryRequest& req, QueryContext& ctx,
                 const Graph* in_arcs, QueryResponse& resp) const;

  /// run_serve's one-target form on a shortcut engine, on the calling
  /// thread: a forward and a backward search that meet
  /// (radius_stepping_meet). The answer is the meeting's distance; a path
  /// is the forward closure to the meeting arc, then the backward closure
  /// from it, written into the response's own path buffer.
  void serve_meet(const QueryRequest& req, QueryContext& ctx,
                  const Graph* in_arcs, QueryResponse& resp) const;

  /// The graph whose out-arcs are the original graph's in-arcs, which
  /// path walks read (extract_path_by_closure). A shortcut engine's
  /// original graph is symmetric and serves itself. A kNone engine's may
  /// be directed: it gets the cached transpose (built at most once,
  /// shared by all path reconstructions), or on a moved-from engine, whose
  /// cache is gone, a transpose built into `local`.
  const Graph& path_graph(Graph& local) const;

  Graph original_;
  PreprocessResult pre_;
  // Set once, at construction (next_epoch bumps the successor's).
  std::uint64_t graph_epoch_ = 1;

  // Reusable per-worker context pools for serve_batch, boxed so the
  // engine stays movable despite the mutexes. Each concurrent batch
  // LEASES one slot for its duration: serve_batch try-locks the existing
  // slots and, when all are busy, grows the set by one — so N concurrent
  // batches end up with N dedicated pools that each stay warm for the
  // next batch to lease. (The pre-PR6 design had a single slot whose
  // try-lock loser fell back to a cold batch-local pool: under a serving
  // daemon running concurrent micro-batches that re-paid full context
  // construction on every collision.) Slots live in a deque so growth
  // never moves a leased slot; the scan-or-grow runs under grow_mutex,
  // which is never held while waiting on a slot (try-lock only), so
  // acquisition cannot deadlock or block behind a running batch. Null
  // only in a moved-from engine, which serve_batch tolerates by using a
  // batch-local pool.
  struct BatchPoolSlot {
    std::mutex mutex;
    WorkerPool<QueryContext> pool;
  };
  struct BatchPools {
    std::mutex grow_mutex;
    std::deque<BatchPoolSlot> slots;
  };
  std::unique_ptr<BatchPools> batch_pools_ = std::make_unique<BatchPools>();

  // Lazily-built transpose of a kNone engine's original graph: path
  // reconstruction walks INCOMING arcs (directed-correct parents), and
  // every want_paths serve shares one transpose. Boxed for movability;
  // built at most once.
  struct TransposeCache {
    std::once_flag once;
    Graph graph;
  };
  std::unique_ptr<TransposeCache> transpose_ =
      std::make_unique<TransposeCache>();
};

}  // namespace rs
