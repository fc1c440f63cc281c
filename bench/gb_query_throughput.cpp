// High-throughput query serving: queries/sec over a fixed source batch,
// comparing three serving strategies on the same preprocessed engine, all
// over full-distance requests (want_full_distances, one per source):
//
//   seq    — per-request engine.serve() loop with fresh per-query state
//            (baseline);
//   ctx    — the same sequential loop over one warm QueryContext
//            (zero-allocation hot path, intra-query parallelism);
//   batch  — engine.serve_batch() over one warm WorkerPool kept across
//            reps: the two-level scheduler (source-parallel across the
//            pool's per-worker contexts when the batch is at least as wide
//            as the worker count).
//
// Metric names seq_qps / ctx_qps / batch_qps. Every strategy's distances
// are checked against fresh per-source serves.
//
// Targeted point-to-point serving (PR 5) is tracked alongside: p2p1_qps /
// p2p8_qps / p2p64_qps time a warm-context serve() loop over the same
// source batch with 1, 8, and 64 random targets per request — the
// early-termination, O(|targets|)-response regime a router or
// reachability service runs. Each p2p strategy's per-target distances are
// checked against the flat full-SSSP reference too.
//
// Self-timed on purpose (no Google Benchmark dependency despite the gb_
// prefix) so it runs in every environment, including the CI bench-smoke
// job, and always writes BENCH_gb_query_throughput.json for the perf
// trajectory. Exits non-zero if any strategy disagrees with the baseline
// distances, so it doubles as an end-to-end smoke test.
//
// Knobs: RS_SCALE / RS_THREADS as usual, RS_BATCH (sources per batch,
// default 64), RS_REPS (timing repetitions, default 5), RS_RHO
// (preprocessing rho, default PreprocessOptions{}'s).
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/query_context.hpp"
#include "exp_common.hpp"
#include "parallel/context_pool.hpp"
#include "parallel/primitives.hpp"
#include "parallel/rng.hpp"
#include "parallel/timer.hpp"

namespace {

using namespace rs;

/// Best-of-`reps` wall time of `run`, in seconds (min filters scheduler
/// noise; each rep redoes the whole batch).
double best_seconds(int reps, const std::function<void()>& run) {
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    run();
    const double s = t.seconds();
    if (best < 0.0 || s < best) best = s;
  }
  return best;
}

/// One targeted request per source: `targets_per` random targets drawn
/// deterministically per request (same requests for every rep).
std::vector<QueryRequest> make_p2p_requests(const Graph& g,
                                            const std::vector<Vertex>& sources,
                                            int targets_per) {
  const SplitRng rng(4242);
  std::vector<QueryRequest> requests;
  requests.reserve(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    QueryRequest req;
    req.source = sources[i];
    req.targets.reserve(static_cast<std::size_t>(targets_per));
    for (int t = 0; t < targets_per; ++t) {
      req.targets.push_back(static_cast<Vertex>(rng.bounded(
          i, static_cast<std::uint64_t>(t), g.num_vertices())));
    }
    requests.push_back(std::move(req));
  }
  return requests;
}

}  // namespace

int main() {
  using namespace rs::exp;
  const Scale s = scale_from_env();
  const int batch = static_cast<int>(env_int64("RS_BATCH", 64));
  const int reps = static_cast<int>(env_int64("RS_REPS", 5));
  const auto rho =
      static_cast<Vertex>(env_int64("RS_RHO", PreprocessOptions{}.rho));

  const auto graphs = shortcut_suite(s);
  print_header("Query throughput — serving strategies (queries/sec)", s,
               graphs);
  std::printf("batch=%d  reps=%d  rho=%u\n\n", batch, reps, rho);
  std::printf("  %-8s  %10s  %10s  %10s  %8s  %10s  %10s  %10s\n", "graph",
              "seq_qps", "ctx_qps", "batch_qps", "speedup", "p2p1_qps",
              "p2p8_qps", "p2p64_qps");

  BenchJson json("gb_query_throughput", s);
  bool ok = true;

  for (const auto& [name, g0] : graphs) {
    const Graph g = paper_weighted(g0);
    PreprocessOptions opts;
    opts.rho = rho;
    opts.k = 2;
    const SsspEngine engine(g, opts);
    const std::vector<Vertex> sources =
        sample_sources(g, batch, /*seed=*/777);

    std::vector<QueryRequest> full(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      full[i].source = sources[i];
      full[i].want_full_distances = true;
    }

    // Reference distances: fresh serves, computed once per graph.
    std::vector<QueryResponse> ref;
    ref.reserve(full.size());
    for (const QueryRequest& req : full) ref.push_back(engine.serve(req));

    // Baseline: one fresh-state serve per source.
    std::vector<QueryResponse> seq_results;
    const auto run_seq = [&] {
      seq_results.clear();
      seq_results.reserve(full.size());
      for (const QueryRequest& req : full) {
        seq_results.push_back(engine.serve(req));
      }
    };

    // One warm reused context, sequential batch loop.
    QueryContext ctx(g.num_vertices());
    std::vector<QueryResponse> ctx_results;
    const auto run_ctx = [&] {
      ctx_results.clear();
      ctx_results.reserve(full.size());
      for (const QueryRequest& req : full) {
        ctx_results.push_back(engine.serve(req, ctx));
      }
    };

    // The two-level batch scheduler, on one pool as a server's batcher
    // keeps it (a pool per call would time context construction).
    WorkerPool<QueryContext> pool;
    std::vector<QueryResponse> batch_results;
    const auto run_batch = [&] {
      batch_results = engine.serve_batch(full, pool);
    };

    // Warm-up (also materializes every result for the equality check).
    run_seq();
    run_ctx();
    run_batch();
    for (std::size_t i = 0; i < sources.size(); ++i) {
      if (seq_results[i].dist != ref[i].dist ||
          ctx_results[i].dist != ref[i].dist ||
          batch_results[i].dist != ref[i].dist) {
        std::fprintf(stderr, "MISMATCH on %s source %u\n", name.c_str(),
                     sources[i]);
        ok = false;
      }
    }

    const double t_seq = best_seconds(reps, run_seq);
    const double t_ctx = best_seconds(reps, run_ctx);
    const double t_batch = best_seconds(reps, run_batch);
    const double b = static_cast<double>(batch);
    const double seq_qps = b / t_seq;
    const double ctx_qps = b / t_ctx;
    const double batch_qps = b / t_batch;
    const double speedup = batch_qps / seq_qps;

    // Targeted point-to-point serving: one warm context + reused response
    // over per-source requests with 1 / 8 / 64 random targets (early
    // termination + O(|targets|) responses). Distances are verified against
    // the full-SSSP reference during warm-up.
    const int target_counts[] = {1, 8, 64};
    double p2p_qps[3] = {0.0, 0.0, 0.0};
    QueryContext p2p_ctx(g.num_vertices());
    QueryResponse p2p_resp;
    for (int ti = 0; ti < 3; ++ti) {
      const std::vector<QueryRequest> requests =
          make_p2p_requests(g, sources, target_counts[ti]);
      for (std::size_t i = 0; i < requests.size(); ++i) {  // warm + check
        engine.serve(requests[i], p2p_ctx, p2p_resp);
        for (const TargetResult& tr : p2p_resp.targets) {
          if (tr.dist != ref[i].dist[tr.target]) {
            std::fprintf(stderr, "P2P MISMATCH on %s source %u target %u\n",
                         name.c_str(), requests[i].source, tr.target);
            ok = false;
          }
        }
      }
      const double t_p2p = best_seconds(reps, [&] {
        for (const QueryRequest& req : requests) {
          engine.serve(req, p2p_ctx, p2p_resp);
        }
      });
      p2p_qps[ti] = b / t_p2p;
    }

    std::printf("  %-8s  %10.1f  %10.1f  %10.1f  %7.2fx  %10.1f  %10.1f  "
                "%10.1f\n",
                name.c_str(), seq_qps, ctx_qps, batch_qps, speedup, p2p_qps[0],
                p2p_qps[1], p2p_qps[2]);

    const BenchJson::Labels labels{{"graph", name},
                                   {"batch", std::to_string(batch)},
                                   {"rho", std::to_string(rho)}};
    json.add("seq_qps", seq_qps, "queries/sec", labels);
    json.add("ctx_qps", ctx_qps, "queries/sec", labels);
    json.add("batch_qps", batch_qps, "queries/sec", labels);
    json.add("batch_speedup", speedup, "x", labels);
    json.add("p2p1_qps", p2p_qps[0], "queries/sec", labels);
    json.add("p2p8_qps", p2p_qps[1], "queries/sec", labels);
    json.add("p2p64_qps", p2p_qps[2], "queries/sec", labels);
  }

  const std::string path = json.write();
  if (!path.empty()) std::printf("\nwrote %s\n", path.c_str());
  if (!ok) {
    std::fprintf(stderr, "FAILED: strategy results diverged\n");
    return 1;
  }
  return 0;
}
