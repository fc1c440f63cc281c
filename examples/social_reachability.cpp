// Scale-free network analysis (the paper's webgraph scenario) on the
// serving API: on graphs with hub vertices, Radius-Stepping needs very
// few steps and the DP heuristic adds almost no shortcut edges because
// the hubs already flatten the shortest-path trees (Section 5.2).
//
// The serving twist: "how far is user B from user A" is a targeted
// request, not a full SSSP — serve() stops as soon as the asked-about
// users are settled, which on a hub graph is usually after one or two
// levels.
//
//   ./social_reachability [n=20000]
#include <cstdio>
#include <cstdlib>

#include "core/engine.hpp"
#include "core/radii.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "shortcut/shortcut.hpp"

int main(int argc, char** argv) {
  using namespace rs;
  const Vertex n = argc > 1 ? static_cast<Vertex>(std::atoi(argv[1])) : 20000;

  const Graph g = gen::barabasi_albert(n, /*edges_per_vertex=*/7, /*seed=*/3);
  const DegreeStats deg = degree_stats(g);
  std::printf("scale-free network: %u vertices, %llu edges, "
              "max degree %llu (hub), avg %.2f\n",
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_undirected_edges()),
              static_cast<unsigned long long>(deg.max), deg.mean);

  // Engine over the raw unit-weight graph (no shortcuts): hop distances,
  // with steps guided by the r_rho radii (the §3.4 regime).
  PreprocessResult pre;
  pre.graph = g;
  pre.radius = all_radii(g, /*rho=*/16);
  pre.options.heuristic = ShortcutHeuristic::kNone;
  const SsspEngine engine(g, std::move(pre));

  // Hop-distance profile from one user: a full-distances request.
  QueryRequest profile;
  profile.source = 0;
  profile.want_full_distances = true;
  const QueryResponse full = engine.serve(profile);
  std::size_t reached3 = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (full.dist[v] <= 3) ++reached3;
  }
  std::printf("  full profile: %zu steps to settle the graph "
              "(%.1f%% of users within 3 hops)\n",
              full.stats.steps, 100.0 * reached3 / n);

  // Targeted reachability checks: distance user 0 -> a few user ids, each
  // answered with early termination and an O(|targets|) response.
  QueryRequest reach;
  reach.source = 0;
  reach.targets = {n / 2, n - 1, 1};
  reach.want_paths = true;
  const QueryResponse resp = engine.serve(reach);
  std::printf("  targeted serve: %zu steps%s (vs %zu full)\n",
              resp.stats.steps, resp.stats.early_exit ? ", early exit" : "",
              full.stats.steps);
  for (const TargetResult& tr : resp.targets) {
    if (tr.dist != full.dist[tr.target]) {
      std::printf("MISMATCH on user %u\n", tr.target);
      return 1;
    }
    std::printf("    user %u: %llu hops (witness chain of %zu users)\n",
                tr.target, static_cast<unsigned long long>(tr.dist),
                tr.path.size());
  }

  // Shortcut economics: DP vs greedy at k = 3 (Figure 3(b) in miniature).
  for (const auto heuristic :
       {ShortcutHeuristic::kGreedy, ShortcutHeuristic::kDP}) {
    PreprocessOptions opts;
    opts.rho = 128;
    opts.k = 3;
    opts.heuristic = heuristic;
    // Unweighted hub graphs have huge distance-tie classes; use the
    // exactly-rho tie variant (paper footnote, §5.1) to keep this cheap.
    opts.settle_ties = false;
    const PreprocessResult shortcut_pre = preprocess(g, opts);
    std::printf("  shortcutting (rho=128, k=3, %s): +%.3fx edges\n",
                to_string(heuristic), shortcut_pre.added_factor);
  }
  return 0;
}
