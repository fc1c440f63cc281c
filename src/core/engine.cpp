#include "core/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include <omp.h>

#include "core/radius_stepping.hpp"
#include "core/sp_tree.hpp"
#include "parallel/primitives.hpp"

namespace rs {

namespace {

/// SsspEngine::transpose_ for (original, pre).
Graph transpose_for_paths(const Graph& original, const PreprocessResult& pre) {
  return pre.options.heuristic == ShortcutHeuristic::kNone
             ? original.transposed()
             : Graph{};
}

}  // namespace

SsspEngine::SsspEngine(Graph g, const PreprocessOptions& opts)
    : original_(std::move(g)),
      pre_(preprocess(original_, opts)),
      transpose_(transpose_for_paths(original_, pre_)) {}

SsspEngine::SsspEngine(Graph original, PreprocessResult pre)
    : original_(std::move(original)),
      pre_(std::move(pre)),
      transpose_(transpose_for_paths(original_, pre_)) {
  if (pre_.graph.num_vertices() != original_.num_vertices() ||
      pre_.radius.size() != original_.num_vertices()) {
    throw std::invalid_argument("SsspEngine: preprocessing/graph mismatch");
  }
}

SsspEngine SsspEngine::next_epoch(const SsspEngine& prior, Graph original,
                                  PreprocessResult pre) {
  SsspEngine next(std::move(original), std::move(pre));
  next.graph_epoch_ = prior.graph_epoch_ + 1;
  return next;
}

void SsspEngine::validate(const QueryRequest& req) const {
  const Vertex n = pre_.graph.num_vertices();
  if (req.source >= n) {
    throw std::invalid_argument("SsspEngine: bad source");
  }
  if (req.kind == RequestKind::kTopK) {
    if (req.k == 0) {
      throw std::invalid_argument("SsspEngine: kTopK needs k >= 1");
    }
    if (!req.targets.empty()) {
      throw std::invalid_argument("SsspEngine: kTopK takes no targets");
    }
    return;
  }
  for (const Vertex t : req.targets) {
    if (t >= n) throw std::invalid_argument("SsspEngine: bad target");
  }
}

const Graph& SsspEngine::path_graph() const {
  // A shortcut engine's input passed is_symmetric: the lightest arc of
  // each pair weighs the same both ways, and only a lightest arc can
  // close d(u) + w = d(v), so the graph's own arcs are its in-arcs.
  return pre_.options.heuristic == ShortcutHeuristic::kNone ? transpose_
                                                            : original_;
}

void SsspEngine::run_serve(const QueryRequest& req, QueryContext& ctx,
                           QueryResponse& resp) const {
  const Vertex n = pre_.graph.num_vertices();
  resp.source = req.source;
  resp.stats = RunStats{};
  resp.dist.clear();
  resp.trace = obs::TraceBuffer{};
  // Provenance: which preprocessing generation answered, and how.
  resp.graph_epoch = graph_epoch_;
  resp.served_from_cache = false;
  // Per-phase clock readings only for traced requests; the flag is
  // per-run (set fresh here every time), so context reuse cannot leak it.
  ctx.set_trace_phases(req.trace);

  // Early termination only when it cannot change what the caller sees: a
  // full distance vector needs the exhaustive run, an untargeted kTargets
  // request has no settled-set to wait for, and a kTopK run may stop at
  // the first step boundary with k vertices settled.
  const bool topk = req.kind == RequestKind::kTopK;
  const bool early = !topk && !req.targets.empty() && !req.want_full_distances;
  // One target on a shortcut engine (whose graph is symmetric): a second
  // search from the target meets the first, on the calling thread at any
  // worker count (core/request.hpp says why).
  if (early && req.targets.size() == 1 &&
      pre_.options.heuristic != ShortcutHeuristic::kNone) {
    serve_meet(req, ctx, resp);
    return;
  }
  if (early) {
    ctx.set_targets(n, req.targets.data(), req.targets.size());
  } else {
    ctx.clear_targets();
    if (topk && !req.want_full_distances) ctx.set_k_goal(req.k);
  }

  radius_stepping_partial(pre_.graph, req.source, pre_.radius, ctx,
                          &resp.stats);

  const QueryContext::Search& search = ctx.search();
  if (topk) {
    // k-nearest extraction from the first-touch records: at the exit
    // boundary every SETTLED touched vertex carries its final distance and
    // every unsettled vertex is strictly farther (Theorem 3.1), so the k
    // smallest settled (dist, vertex) pairs are exactly the k nearest. All
    // buffers come from the context: a warm top-k serve allocates nothing.
    auto& buf = ctx.topk_buffer();
    search.for_each_touched([&](Vertex v) {
      if (search.is_settled(v)) buf.push_back({search.read_dist(v), v});
    });
    const std::size_t m = std::min<std::size_t>(req.k, buf.size());
    std::partial_sort(buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(m), buf.end());
    resp.targets.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      TargetResult& tr = resp.targets[i];
      tr.target = buf[i].second;
      tr.dist = buf[i].first;
      tr.path.clear();
    }
  } else {
    // Per-target answers, read straight out of the context's working array
    // (zero-copy: the O(n) vector is never materialized for targeted
    // requests). Every target is exact here: either the run was
    // exhaustive, or it stopped only once all of them settled.
    resp.targets.resize(req.targets.size());
    for (std::size_t i = 0; i < req.targets.size(); ++i) {
      TargetResult& tr = resp.targets[i];
      tr.target = req.targets[i];
      tr.dist = search.read_dist(tr.target);
      tr.path.clear();
    }
  }
  if (req.want_paths) {
    const auto dist_of = [&search](Vertex v) { return search.read_dist(v); };
    for (TargetResult& tr : resp.targets) {
      if (tr.dist != kInfDist) {
        // Distances are identical on the original graph (shortcuts
        // preserve them), so the walk over the original's in-arcs never
        // uses a shortcut edge.
        extract_path_by_closure(path_graph(), req.source, tr.target,
                                dist_of, tr.path);
      }
    }
  }

  // End the query: the full copy only when asked, otherwise restore the
  // context's all-infinite invariant in O(touched) — the engine records
  // first-touches, so a targeted serve that early-terminated after a
  // handful of vertices no longer pays an O(n) sweep per request.
  if (req.want_full_distances) {
    ctx.finish_query(n, resp.dist);
  } else {
    ctx.reset_touched();
  }
  ctx.clear_targets();
}

void SsspEngine::serve_meet(const QueryRequest& req, QueryContext& ctx,
                            QueryResponse& resp) const {
  const Meeting meeting =
      radius_stepping_meet(pre_.graph, req.source, req.targets[0],
                           pre_.radius, ctx, &resp.stats);
  resp.targets.resize(1);
  TargetResult& tr = resp.targets[0];
  tr.target = req.targets[0];
  tr.dist = meeting.dist;
  tr.path.clear();
  if (req.want_paths && meeting.dist != kInfDist) {
    // source .. forward, then backward .. target. Both ends of the
    // meeting arc are settled with exact distances in their own search,
    // and on a symmetric graph the backward search's closure walk from
    // `backward` runs along a shortest path to the target.
    const QueryContext::Search& fs = ctx.search();
    const QueryContext::Search& bs = ctx.backward();
    append_closure_walk(path_graph(), meeting.forward, req.source,
                        [&fs](Vertex v) { return fs.read_dist(v); }, tr.path);
    std::reverse(tr.path.begin(), tr.path.end());
    // A meeting at one vertex (source == target) starts both walks there.
    if (meeting.forward == meeting.backward) tr.path.pop_back();
    append_closure_walk(path_graph(), meeting.backward, tr.target,
                        [&bs](Vertex v) { return bs.read_dist(v); }, tr.path);
  }
  ctx.reset_touched();
}

QueryResponse SsspEngine::serve(const QueryRequest& req) const {
  QueryContext ctx(pre_.graph.num_vertices());
  return serve(req, ctx);
}

QueryResponse SsspEngine::serve(const QueryRequest& req,
                                QueryContext& ctx) const {
  QueryResponse resp;
  serve(req, ctx, resp);
  return resp;
}

void SsspEngine::serve(const QueryRequest& req, QueryContext& ctx,
                       QueryResponse& resp) const {
  validate(req);
  run_serve(req, ctx, resp);
}

std::vector<QueryResponse> SsspEngine::serve_batch(
    const std::vector<QueryRequest>& requests) const {
  WorkerPool<QueryContext> pool;
  return serve_batch(requests, pool);
}

std::vector<QueryResponse> SsspEngine::serve_batch(
    const std::vector<QueryRequest>& requests,
    WorkerPool<QueryContext>& pool) const {
  const std::size_t batch = requests.size();
  std::vector<QueryResponse> out(batch);
  if (batch == 0) return out;

  // Validate everything up front: nothing may throw inside the parallel
  // region below.
  for (const QueryRequest& req : requests) validate(req);

  const int nw = num_workers();
  if (nw > 1 && batch >= static_cast<std::size_t>(nw)) {
    // Request-parallel: one query per worker, each on that worker alone
    // (num_workers() is 1 inside the region). Dynamic schedule —
    // per-request cost varies with eccentricity and targets.
    pool.ensure(static_cast<std::size_t>(nw));
#pragma omp parallel for schedule(dynamic, 1) num_threads(nw)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(batch); ++i) {
      QueryContext& ctx =
          pool.at(static_cast<std::size_t>(omp_get_thread_num()));
      run_serve(requests[static_cast<std::size_t>(i)], ctx,
                out[static_cast<std::size_t>(i)]);
    }
    return out;
  }

  // Batch narrower than the worker count (or one worker): sequential batch
  // loop over one reused context, each query on all num_workers().
  pool.ensure(1);
  QueryContext& ctx = pool.at(0);
  for (std::size_t i = 0; i < batch; ++i) {
    run_serve(requests[i], ctx, out[i]);
  }
  return out;
}

}  // namespace rs
