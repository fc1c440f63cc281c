// Dynamic-update benchmark: the cost of keeping a (k,rho)-preprocessed
// serving engine current while edge weights churn.
//
//   update_latency_us  wall time for one weight-update batch end to end
//                      through the incremental path: apply the updates,
//                      recompute the dirty balls, splice a full
//                      PreprocessResult (lower is better);
//   cold_rebuild_us    wall time of a plain preprocess() of the same
//                      graph: rebuild_speedup's numerator (lower is
//                      better);
//   rebuild_speedup    cold_rebuild_us over that same incremental
//                      latency — the factor the incremental path saves.
//                      Its unit "x" is one scripts/compare_bench.py does
//                      not gate: a faster cold rebuild lowers it, so the
//                      two times above are gated instead;
//   churn_read_qps     one-target serve_sync reads per second through
//                      DynamicSsspService, counting the wall time of the
//                      apply_updates call that publishes each round's
//                      batch before its reads.
//
// Self-timed (no Google Benchmark dependency despite the gb_ prefix) so
// the CI bench-smoke job can run it anywhere; writes
// BENCH_gb_dynamic_update.json for the perf trajectory. Every
// incremental result is checked bit-identical against a cold rebuild of
// the same graph and the post-churn engine is checked against Dijkstra;
// exits non-zero on any divergence.
//
// Knobs: RS_SCALE / RS_THREADS as usual, RS_RHO and RS_K (default
// PreprocessOptions{}'s), RS_REPS (timing repetitions, default 5),
// RS_CHURN_Q (queries per churn round, default 64).
#include <cstdio>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "baseline/dijkstra.hpp"
#include "exp_common.hpp"
#include "graph/update.hpp"
#include "parallel/primitives.hpp"
#include "parallel/timer.hpp"
#include "serve/dynamic.hpp"
#include "shortcut/incremental.hpp"
#include "shortcut/shortcut.hpp"

namespace {

using namespace rs;

/// A batch of `count` random re-weightings over arcs that exist in `g`.
std::vector<WeightUpdate> random_batch(const Graph& g, std::size_t count,
                                       std::mt19937& rng) {
  std::uniform_int_distribution<Weight> weight(1, 10000);
  std::uniform_int_distribution<EdgeId> arc(0, g.num_edges() - 1);
  std::vector<WeightUpdate> batch;
  for (std::size_t i = 0; i < count; ++i) {
    const EdgeId e = arc(rng);
    Vertex u = 0;
    while (g.last_arc(u) <= e) ++u;
    batch.push_back(WeightUpdate{u, g.arc_target(e), weight(rng)});
  }
  return batch;
}

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

bool same_result(const PreprocessResult& a, const PreprocessResult& b) {
  return a.graph == b.graph && a.radius == b.radius &&
         a.added_edges == b.added_edges;
}

}  // namespace

int main() {
  using namespace rs::exp;
  const Scale s = scale_from_env();
  const PreprocessOptions defaults;
  const auto rho = static_cast<Vertex>(env_int64("RS_RHO", defaults.rho));
  const auto k = static_cast<Vertex>(env_int64("RS_K", defaults.k));
  const int reps = static_cast<int>(env_int64("RS_REPS", 5));
  const int churn_q = static_cast<int>(env_int64("RS_CHURN_Q", 64));

  const auto graphs = shortcut_suite(s);
  print_header("Dynamic weight updates (incremental vs cold rebuild)", s,
               graphs);
  std::printf("rho=%u  k=%u  reps=%d\n\n", rho, k, reps);
  std::printf("  %-8s  %6s  %14s  %14s  %12s  %14s\n", "graph", "batch",
              "update_us", "cold_us", "speedup", "churn_read_qps");

  BenchJson json("gb_dynamic_update", s);
  bool ok = true;

  for (const auto& [name, g0] : graphs) {
    const Graph g = paper_weighted(g0);

    PreprocessOptions opts;
    opts.rho = rho;
    opts.k = k;
    opts.heuristic = ShortcutHeuristic::kDP;

    IncrementalPreprocessor inc(g, opts);

    std::mt19937 rng(2026);
    for (const std::size_t batch_size : {std::size_t{1}, std::size_t{8},
                                         std::size_t{64}}) {
      // Each rep applies a fresh random batch; the state evolves, which
      // is exactly the steady churn a live service sees.
      const double t_inc = best_seconds(reps, [&] {
        const auto batch = random_batch(inc.graph(), batch_size, rng);
        (void)inc.apply(batch);
        (void)inc.result();
      });
      // Cold rebuild of the SAME current graph, and the bit-identity
      // check that keeps the fast path honest.
      PreprocessResult cold;
      const double t_cold =
          best_seconds(reps, [&] { cold = preprocess(inc.graph(), opts); });
      if (!same_result(inc.result(), cold)) {
        std::fprintf(stderr, "MISMATCH on %s batch=%zu: incremental != "
                     "cold rebuild\n", name.c_str(), batch_size);
        ok = false;
      }

      const double update_us = t_inc * 1e6;
      const double cold_us = t_cold * 1e6;
      const double speedup = t_cold / t_inc;
      std::printf("  %-8s  %6zu  %14.1f  %14.1f  %11.2fx  %14s\n",
                  name.c_str(), batch_size, update_us, cold_us, speedup, "-");
      const BenchJson::Labels labels{{"graph", name},
                                     {"batch", std::to_string(batch_size)},
                                     {"rho", std::to_string(rho)},
                                     {"k", std::to_string(k)}};
      json.add("update_latency_us", update_us, "us", labels);
      json.add("cold_rebuild_us", cold_us, "us", labels);
      json.add("rebuild_speedup", speedup, "x", labels);
    }

    // Churn: each round publishes a batch (stage + flush + epoch swap),
    // then serves plain one-target reads on the new epoch.
    serve::DynamicSsspService::Options dopts;
    dopts.preprocess = opts;
    serve::DynamicSsspService dyn(g, dopts);
    const std::vector<Vertex> sources =
        sample_sources(g, churn_q, /*seed=*/31);
    std::size_t served = 0;
    Timer churn_timer;
    for (int round = 0; round < reps; ++round) {
      // random_batch reads only arcs, which weight updates never change.
      dyn.apply_updates(random_batch(g, 8, rng));
      for (const Vertex src : sources) {
        QueryRequest req;
        req.source = src;
        req.targets.push_back(static_cast<Vertex>(
            (src + g.num_vertices() / 2) % g.num_vertices()));
        (void)dyn.server().serve_sync(req);
        ++served;
      }
    }
    const double churn_read_qps =
        static_cast<double>(served) / churn_timer.seconds();

    // Post-churn exactness: the swapped-in engine vs Dijkstra.
    {
      const auto eng = dyn.server().engine_snapshot();
      const std::vector<Dist> want =
          dijkstra(eng->original_graph(), sources[0]);
      QueryRequest req;
      req.source = sources[0];
      req.want_full_distances = true;
      const QueryResponse got = dyn.server().serve_sync(req);
      if (got.dist != want) {
        std::fprintf(stderr, "MISMATCH on %s: post-churn engine row\n",
                     name.c_str());
        ok = false;
      }
    }
    std::printf("  %-8s  %6s  %14s  %14s  %12s  %14.1f\n", name.c_str(),
                "-", "-", "-", "-", churn_read_qps);
    json.add("churn_read_qps", churn_read_qps, "queries/sec",
             {{"graph", name},
              {"rho", std::to_string(rho)},
              {"k", std::to_string(k)}});
  }

  const std::string path = json.write();
  if (!path.empty()) std::printf("\nwrote %s\n", path.c_str());
  if (!ok) {
    std::fprintf(stderr, "FAILED: dynamic update paths diverged\n");
    return 1;
  }
  return 0;
}
