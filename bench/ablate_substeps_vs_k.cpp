// Ablation for Theorem 3.2: with preprocessing at parameter k, the maximum
// number of Bellman-Ford substeps in any step is bounded by k + 2 — and the
// bound is nearly tight in practice. Also shows the cost side of the
// trade-off: larger k => fewer added edges but more substeps (total depth),
// the tension §5.4 discusses.
//
// Second trade: the engine stops each vertex's weight-sorted shortcut scan
// at d_i. Against the unsplit copy of the same arcs (every arc relaxed),
// it scans fewer arcs per query and runs more substeps, in the same
// steps. Exits 1 if the steps differ or a step exceeds k + 2 substeps.
#include <cstdio>

#include "core/radius_stepping.hpp"
#include "exp_common.hpp"
#include "graph/generators.hpp"
#include "shortcut/shortcut.hpp"

int main() {
  using namespace rs;
  using namespace rs::exp;
  Scale s = scale_from_env();
  // Preprocessing with materialized shortcuts is the expensive part; a
  // smaller road network keeps this ablation snappy.
  s.road_side = std::min<Vertex>(s.road_side, 96);
  const Graph g0 = gen::road_network(s.road_side, s.road_side, 101);
  const Graph g = paper_weighted(g0);
  std::printf("=== Ablation — substeps vs k (Theorem 3.2: max substeps <= "
              "k+2) ===\n");
  std::printf("road network |V|=%u |E|=%llu, rho=32, DP heuristic\n\n",
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_undirected_edges()));

  std::printf("  %3s %12s %10s %12s %14s %12s %14s %12s %12s\n", "k",
              "added-factor", "steps", "substeps", "max-substeps",
              "bound(k+2)", "unsplit-subst", "arcs/query", "unsplit-arcs");
  const auto sources = sample_sources(g, std::min(s.sources, 6));
  int failures = 0;
  for (const Vertex k :
       {Vertex{1}, Vertex{2}, Vertex{3}, Vertex{4}, Vertex{6}}) {
    PreprocessOptions opts;
    opts.rho = 32;
    opts.k = k;
    opts.heuristic =
        k == 1 ? ShortcutHeuristic::kFull1Rho : ShortcutHeuristic::kDP;
    const PreprocessResult pre = preprocess(g, opts);
    const Graph unsplit = pre.graph.with_target_sorted_adjacency();

    double steps = 0, substeps = 0, arcs = 0;
    double unsplit_substeps = 0, unsplit_arcs = 0;
    std::size_t max_sub = 0;
    for (const Vertex src : sources) {
      RunStats stats;
      RunStats control;
      radius_stepping(pre.graph, src, pre.radius, &stats);
      radius_stepping(unsplit, src, pre.radius, &control);
      steps += double(stats.steps);
      substeps += double(stats.substeps);
      arcs += double(stats.edges_scanned);
      unsplit_substeps += double(control.substeps);
      unsplit_arcs += double(control.edges_scanned);
      max_sub = std::max(max_sub, stats.max_substeps_in_step);
      if (stats.steps != control.steps) {
        std::printf("STEP MISMATCH k=%u source=%u: %zu vs %zu unsplit\n", k,
                    src, stats.steps, control.steps);
        failures++;
      }
    }
    if (max_sub > k + 2) {
      std::printf("BOUND VIOLATION k=%u: %zu substeps in a step\n", k,
                  max_sub);
      failures++;
    }
    const double q = double(sources.size());
    std::printf("  %3u %12.3f %10.1f %12.1f %14zu %12u %14.1f %12.0f %12.0f\n",
                k, pre.added_factor, steps / q, substeps / q, max_sub, k + 2,
                unsplit_substeps / q, arcs / q, unsplit_arcs / q);
    std::fflush(stdout);
  }
  std::printf("\nExpected: added-factor decreases with k; max-substeps "
              "stays <= k+2; steps stay ~flat (rho fixed). The cut-off "
              "scans fewer arcs than the unsplit copy and runs more "
              "substeps.\n");
  return failures == 0 ? 0 : 1;
}
