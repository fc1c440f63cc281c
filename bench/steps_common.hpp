// Shared driver for Tables 4-7 / Figures 4-5: mean Radius-Stepping step
// counts over sampled sources, as rho varies.
//
// Protocol notes (DESIGN.md §4-5):
//  * radii are r_rho(v) from ball searches; shortcut edges are NOT
//    materialized — the paper observes (§5.3) that the step count depends
//    on rho only, and the step sequence is driven purely by the radii;
//  * the same source sample is reused for every rho (paper §5.3);
//  * rho = 1 rows equal BFS rounds (unweighted) / distance classes
//    (weighted), the baselines Tables 5 and 7 divide by.
#pragma once

#include <cstdio>
#include <vector>

#include "core/radii.hpp"
#include "core/radius_stepping.hpp"
#include "exp_common.hpp"
#include "shortcut/ball_search.hpp"

namespace rs::exp {

inline std::vector<Vertex> step_rhos(const Scale& s, bool weighted) {
  if (s.name == "ci") return {1, 2, 5, 10, 20};
  if (weighted) return {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000};
  return {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000};
}

/// Mean steps over `sources` for one (graph, rho). Unit-weight graphs run
/// the same engine: on them its steps equal the §3.4 BFS-style variant's.
inline double mean_steps(const Graph& g, const std::vector<Vertex>& sources,
                         Vertex rho) {
  const std::vector<Dist> radius =
      rho == 1 ? dijkstra_radii(g.num_vertices()) : all_radii(g, rho);
  double total = 0;
  for (const Vertex src : sources) {
    RunStats stats;
    radius_stepping(g, src, radius, &stats);
    total += static_cast<double>(stats.steps);
  }
  return total / static_cast<double>(sources.size());
}

struct StepsTable {
  std::vector<Vertex> rhos;
  // steps[graph][rho index]
  std::vector<std::vector<double>> steps;
};

inline StepsTable compute_steps_table(const std::vector<NamedGraph>& graphs,
                                      const Scale& s, bool weighted,
                                      std::uint64_t weight_seed = 999) {
  StepsTable t;
  t.rhos = step_rhos(s, weighted);
  for (const auto& [name, g0] : graphs) {
    const Graph g = weighted ? paper_weighted(g0, weight_seed) : g0;
    const auto sources = sample_sources(g, s.sources);
    std::vector<double> row;
    for (const Vertex rho : t.rhos) {
      row.push_back(mean_steps(g, sources, rho));
    }
    t.steps.push_back(std::move(row));
  }
  return t;
}

inline void print_steps_table(const std::vector<NamedGraph>& graphs,
                              const StepsTable& t, bool as_reduction) {
  std::printf("  %6s", "rho");
  for (const auto& [name, g] : graphs) std::printf("  %10s", name.c_str());
  std::printf("\n");
  for (std::size_t ri = 0; ri < t.rhos.size(); ++ri) {
    if (as_reduction && t.rhos[ri] == 1) continue;  // baseline row
    std::printf("  %6u", t.rhos[ri]);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      if (as_reduction) {
        std::printf("  %10.2f", t.steps[gi][0] / t.steps[gi][ri]);
      } else {
        std::printf("  %10.2f", t.steps[gi][ri]);
      }
    }
    std::printf("\n");
  }
  std::printf("\n");
}

/// Writes the steps table as BENCH_<bench>.json (one metric row per
/// graph x rho) so CI can track the perf trajectory; prints the path.
inline void emit_steps_json(const char* bench,
                            const std::vector<NamedGraph>& graphs,
                            const StepsTable& t, const Scale& s) {
  BenchJson json(bench, s);
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    for (std::size_t ri = 0; ri < t.rhos.size(); ++ri) {
      json.add("mean_steps", t.steps[gi][ri], "steps",
               {{"graph", graphs[gi].name},
                {"rho", std::to_string(t.rhos[ri])}});
    }
  }
  const std::string path = json.write();
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());
}

inline void print_steps_csv(const std::vector<NamedGraph>& graphs,
                            const StepsTable& t) {
  std::printf("rho");
  for (const auto& [name, g] : graphs) std::printf(",%s", name.c_str());
  std::printf("\n");
  for (std::size_t ri = 0; ri < t.rhos.size(); ++ri) {
    std::printf("%u", t.rhos[ri]);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      std::printf(",%.2f", t.steps[gi][ri]);
    }
    std::printf("\n");
  }
}

}  // namespace rs::exp
