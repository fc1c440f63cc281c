// Shared driver for Tables 2-3 / Figure 3: counts the shortcut edges a
// heuristic adds, as a factor of the original edge count, over (k, rho)
// combinations — on the unweighted three-graph suite (road / web / grid),
// matching §5.2 ("performance of the heuristics is independent of edge
// weights").
//
// Counting protocol: raw per-tree additions, i.e. the sum over all sources
// of the heuristic's selections. This matches the paper's accounting (its
// (1, rho) scheme is described as "up to n*rho edges"). Engineering reality
// is slightly cheaper: preprocess() deduplicates the union of shortcut sets
// (symmetric picks collapse), which EXPERIMENTS.md quantifies separately.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "exp_common.hpp"
#include "graph/graph.hpp"
#include "shortcut/preprocess_context.hpp"
#include "shortcut/shortcut.hpp"

namespace rs::exp {

struct ShortcutEdgeResult {
  // factor[i] for k = ks[i]: (raw added edges) / m.
  std::vector<double> factor;
};

inline const std::vector<Vertex>& table_ks() {
  static const std::vector<Vertex> ks{2, 3, 4, 5};
  return ks;
}

inline std::vector<Vertex> table_rhos(const Scale& s) {
  if (s.name == "ci") return {10, 20, 50};
  return {10, 20, 50, 100, 200, 500, 1000};
}

/// One (graph, rho) evaluation: runs all ball searches once and applies the
/// heuristic for every k in `ks`. `settle_ties` follows the paper protocol
/// except on hub graphs (see DESIGN.md).
inline ShortcutEdgeResult count_shortcut_edges(const Graph& g, Vertex rho,
                                               const std::vector<Vertex>& ks,
                                               ShortcutHeuristic heuristic,
                                               bool settle_ties) {
  std::vector<std::atomic<std::uint64_t>> added(ks.size());
  PreprocessPool pool;
  for_each_ball(g.with_weight_sorted_adjacency(), nullptr, g.num_vertices(),
                BallOptions{rho, 0, settle_ties}, pool,
                [&](PreprocessContext& ctx, std::size_t, const Ball& ball) {
                  for (std::size_t ki = 0; ki < ks.size(); ++ki) {
                    added[ki].fetch_add(
                        ctx.select(ball, ks[ki], heuristic).size(),
                        std::memory_order_relaxed);
                  }
                });

  ShortcutEdgeResult out;
  for (const auto& a : added) {
    out.factor.push_back(static_cast<double>(a.load()) /
                         static_cast<double>(g.num_undirected_edges()));
  }
  return out;
}

/// Prints one paper-style table (the layout of Tables 2/3) for `heuristic`.
inline void run_shortcut_edge_table(const char* title,
                                    ShortcutHeuristic heuristic) {
  const Scale s = scale_from_env();
  const auto graphs = shortcut_suite(s);
  print_header(title, s, graphs);

  const auto& ks = table_ks();
  for (const auto& [name, g] : graphs) {
    const bool hub_graph = name == "web";
    std::printf("%s (factors of additional edges, %s heuristic%s)\n",
                name.c_str(), to_string(heuristic),
                hub_graph ? "; exactly-rho ties" : "");
    std::printf("  %6s", "rho");
    for (const Vertex k : ks) std::printf("  k=%-7u", k);
    std::printf("\n");
    for (const Vertex rho : table_rhos(s)) {
      const ShortcutEdgeResult r =
          count_shortcut_edges(g, rho, ks, heuristic, !hub_graph);
      std::printf("  %6u", rho);
      for (const double f : r.factor) std::printf("  %-9.3f", f);
      std::printf("\n");
      std::fflush(stdout);
    }
    std::printf("\n");
  }
}

}  // namespace rs::exp
