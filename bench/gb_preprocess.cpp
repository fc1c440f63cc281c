// Preprocessing-cost benchmark (Lemma 4.2's O(m log n + n rho^2) work
// term): ball-search throughput on one warm context, all-radii
// computation, a full preprocess() (preprocess_cold_vps: every call
// builds its own per-worker scratch, as a new process does), and the CSR
// merge that ends every preprocess and every incremental flush, twice:
// with every arc of the preprocessed graph as an extra arc (merge_vps),
// and with only its shortcut arcs, the merge preprocess runs
// (merge_shortcuts_vps).
//
// Self-timed on purpose (no Google Benchmark dependency despite the gb_
// prefix), like gb_query_throughput: it runs in every environment,
// including the CI bench-smoke job on runners without libbenchmark, and
// always writes BENCH_gb_preprocess.json for the perf trajectory. Exits
// non-zero if a timed all_radii or preprocess() diverges from the
// reference run or the merge does not rebuild the preprocessed graph, so
// it doubles as an end-to-end smoke test.
//
// Knobs: RS_SCALE / RS_THREADS as usual, RS_RHO (ball size) and RS_K (hop
// bound), both defaulting to PreprocessOptions{}'s, RS_REPS (timing
// repetitions, default 5), RS_BALLS (sources for the single-context
// ball-rate loop, default 256).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "exp_common.hpp"
#include "graph/builder.hpp"
#include "parallel/primitives.hpp"
#include "parallel/timer.hpp"
#include "shortcut/ball_search.hpp"
#include "shortcut/preprocess_context.hpp"
#include "shortcut/shortcut.hpp"

namespace {

using namespace rs;

/// Best-of-`reps` wall time of `run`, in seconds (min filters scheduler
/// noise; each rep redoes the whole pass).
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
  const int ball_sources = static_cast<int>(env_int64("RS_BALLS", 256));

  const auto graphs = shortcut_suite(s);
  print_header("Preprocessing throughput", s, graphs);
  std::printf("rho=%u  k=%u  reps=%d\n\n", rho, k, reps);
  std::printf("  %-8s  %12s  %12s  %12s  %12s  %12s\n", "graph", "balls/s",
              "radii_v/s", "cold_v/s", "merge_v/s", "merge_sc_v/s");

  BenchJson json("gb_preprocess", s);
  bool ok = true;

  for (const auto& [name, g0] : graphs) {
    const Graph g = paper_weighted(g0);
    const Graph gw = g.with_weight_sorted_adjacency();
    const double n = static_cast<double>(g.num_vertices());

    PreprocessOptions opts;
    opts.rho = rho;
    opts.k = k;
    opts.heuristic = ShortcutHeuristic::kDP;

    // Reference output: the last timed all_radii and preprocess() runs
    // are checked against it.
    const PreprocessResult reference = preprocess(g, opts);

    // Single-context ball rate: the per-ball inner loop in isolation, on
    // one warm context (sequential, like one worker of the OpenMP loop).
    PreprocessContext ball_ctx(g.num_vertices());
    const std::vector<Vertex> sources =
        sample_sources(g, ball_sources, /*seed=*/4242);
    const BallOptions ball_opts{rho, 0, opts.settle_ties};
    const auto run_balls = [&] {
      for (const Vertex src : sources) {
        const Ball& ball = ball_ctx.ball(gw, src, ball_opts);
        (void)ball_ctx.select(ball, k, opts.heuristic);
      }
    };
    run_balls();  // warm the context before timing
    const double t_balls = best_seconds(reps, run_balls);

    std::vector<Dist> radii;
    const double t_radii =
        best_seconds(reps, [&] { radii = all_radii(g, rho); });
    if (radii != reference.radius) {
      std::fprintf(stderr, "MISMATCH on %s: all_radii != radii\n",
                   name.c_str());
      ok = false;
    }

    // Full preprocess, cold: the one-shot cost a new process pays.
    PreprocessResult result;
    const double t_cold =
        best_seconds(reps, [&] { result = preprocess(g, opts); });
    if (!same_result(result, reference)) {
      std::fprintf(stderr, "MISMATCH on %s: repeated preprocess\n",
                   name.c_str());
      ok = false;
    }

    // The CSR merge alone: merging the preprocessed graph's arcs into the
    // original graph rebuilds exactly the preprocessed graph. This row
    // takes every arc as an extra one.
    Graph merged;
    const double t_merge = best_seconds(reps, [&] {
      merged = merge_edges(g, reference.graph.to_triples());
    });
    if (!(merged == reference.graph)) {
      std::fprintf(stderr, "MISMATCH on %s: merge_edges\n", name.c_str());
      ok = false;
    }

    // The merge preprocess runs: only the shortcut segments' arcs.
    std::vector<EdgeTriple> shortcuts;
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      for (EdgeId e = reference.graph.first_shortcut_arc(u);
           e < reference.graph.last_arc(u); ++e) {
        shortcuts.push_back(
            {u, reference.graph.arc_target(e), reference.graph.arc_weight(e)});
      }
    }
    const double t_merge_shortcuts = best_seconds(reps, [&] {
      merged = merge_edges(g, shortcuts);
    });
    if (!(merged == reference.graph)) {
      std::fprintf(stderr, "MISMATCH on %s: merge_edges of the shortcuts\n",
                   name.c_str());
      ok = false;
    }

    const double balls_rate = static_cast<double>(sources.size()) / t_balls;
    const double radii_vps = n / t_radii;
    const double cold_vps = n / t_cold;
    const double merge_vps = n / t_merge;
    const double merge_shortcuts_vps = n / t_merge_shortcuts;
    std::printf("  %-8s  %12.1f  %12.1f  %12.1f  %12.1f  %12.1f\n",
                name.c_str(), balls_rate, radii_vps, cold_vps, merge_vps,
                merge_shortcuts_vps);

    const BenchJson::Labels labels{{"graph", name},
                                   {"rho", std::to_string(rho)},
                                   {"k", std::to_string(k)}};
    json.add("ball_rate", balls_rate, "balls/sec", labels);
    json.add("allradii_vps", radii_vps, "vertices/sec", labels);
    json.add("preprocess_cold_vps", cold_vps, "vertices/sec", labels);
    json.add("merge_vps", merge_vps, "vertices/sec", labels);
    json.add("merge_shortcuts_vps", merge_shortcuts_vps, "vertices/sec",
             labels);
  }

  const std::string path = json.write();
  if (!path.empty()) std::printf("\nwrote %s\n", path.c_str());
  if (!ok) {
    std::fprintf(stderr, "FAILED: preprocessing output diverged\n");
    return 1;
  }
  return 0;
}
