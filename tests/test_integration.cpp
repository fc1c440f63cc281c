// End-to-end pipelines: generate -> weight -> preprocess -> query from many
// sources with every engine, plus serialization round trips and the paper's
// headline empirical trend in miniature.
#include <gtest/gtest.h>

#include "baseline/bfs.hpp"
#include "baseline/delta_stepping.hpp"
#include "baseline/dijkstra.hpp"
#include "core/radii.hpp"
#include "core/radius_stepping.hpp"
#include "core/rs_bst.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "graph/weights.hpp"
#include "parallel/primitives.hpp"
#include "parallel/rng.hpp"
#include "shortcut/shortcut.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

TEST(Integration, FullPipelineOnMidsizeRoadNetwork) {
  const Graph g = assign_uniform_weights(gen::road_network(40, 40, 3), 5);
  PreprocessOptions opts;
  opts.rho = 32;
  opts.k = 3;
  opts.heuristic = ShortcutHeuristic::kDP;
  const PreprocessResult pre = preprocess(g, opts);
  EXPECT_GT(pre.added_edges, 0u);

  const SplitRng rng(1);
  for (int qi = 0; qi < 5; ++qi) {
    const Vertex src = static_cast<Vertex>(
        rng.bounded(0, static_cast<std::uint64_t>(qi), g.num_vertices()));
    const auto ref = dijkstra(g, src);
    RunStats stats;
    EXPECT_EQ(radius_stepping(pre.graph, src, pre.radius, &stats), ref);
    EXPECT_LE(stats.max_substeps_in_step, opts.k + 2u);
    EXPECT_EQ(radius_stepping_bst(pre.graph, src, pre.radius), ref);
    EXPECT_EQ(delta_stepping(g, src), ref);
  }
}

TEST(Integration, RmatPipelineViaLargestComponent) {
  const Graph raw = gen::rmat(10, 8, 21);
  const Graph g0 = largest_component(raw);
  ASSERT_TRUE(is_connected(g0));
  const Graph g = assign_uniform_weights(g0, 9);
  PreprocessOptions opts;
  opts.rho = 16;
  opts.k = 2;
  opts.heuristic = ShortcutHeuristic::kDP;
  opts.settle_ties = false;  // hub graph: exactly-rho tie variant
  const PreprocessResult pre = preprocess(g, opts);
  EXPECT_EQ(radius_stepping(pre.graph, 0, pre.radius), dijkstra(g, 0));
}

TEST(Integration, SerializeReloadQuery) {
  const Graph g = assign_uniform_weights(gen::grid2d(20, 20), 13);
  const std::string path = ::testing::TempDir() + "/rs_integration.gr";
  io::write_dimacs_file(g, path);
  const Graph g2 = io::read_dimacs_file(path);
  const auto radius = all_radii(g2, 8);
  EXPECT_EQ(radius_stepping(g2, 5, radius), dijkstra(g, 5));
}

TEST(Integration, UnweightedPipelineMatchesBfsEverywhere) {
  const Graph g = gen::barabasi_albert(2000, 4, 8);
  const auto radius = all_radii(g, 16);
  const SplitRng rng(2);
  for (int qi = 0; qi < 4; ++qi) {
    const Vertex src = static_cast<Vertex>(
        rng.bounded(0, static_cast<std::uint64_t>(qi), g.num_vertices()));
    RunStats stats;
    const auto d = radius_stepping(g, src, radius, &stats);
    EXPECT_EQ(d, bfs(g, src));
    std::size_t bfs_rounds = 0;
    bfs(g, src, &bfs_rounds);
    EXPECT_LE(stats.steps, bfs_rounds);
  }
}

TEST(Integration, MeanStepsShrinkWithRhoPaperTrend) {
  // Figure 4/5 in miniature: mean steps over sampled sources drop as rho
  // grows, on both a weighted road network and an unweighted grid.
  const Graph road = assign_uniform_weights(gen::road_network(30, 30, 4), 6);
  const Graph grid = assign_unit_weights(gen::grid2d(30, 30));
  const SplitRng rng(3);

  auto mean_steps = [&](const Graph& g, Vertex rho, bool weighted) {
    const auto radius =
        rho == 1 ? dijkstra_radii(g.num_vertices()) : all_radii(g, rho);
    double total = 0;
    const int samples = 5;
    for (int i = 0; i < samples; ++i) {
      const Vertex src = static_cast<Vertex>(
          rng.bounded(weighted ? 10 : 20, static_cast<std::uint64_t>(i),
                      g.num_vertices()));
      RunStats stats;
      radius_stepping(g, src, radius, &stats);
      total += static_cast<double>(stats.steps);
    }
    return total / samples;
  };

  const double road1 = mean_steps(road, 1, true);
  const double road16 = mean_steps(road, 16, true);
  const double road64 = mean_steps(road, 64, true);
  EXPECT_LT(road16, road1);
  EXPECT_LE(road64, road16);
  // Weighted rho=1 is Dijkstra-like: steps near the number of vertices.
  EXPECT_GT(road1, road.num_vertices() / 2.0);

  const double grid1 = mean_steps(grid, 1, false);
  const double grid16 = mean_steps(grid, 16, false);
  EXPECT_LT(grid16, grid1);
}

TEST(Integration, ThreadCountSweepIsInvariant) {
  const Graph g = assign_uniform_weights(gen::grid3d(8, 8, 8), 31);
  PreprocessOptions opts;
  opts.rho = 16;
  opts.k = 2;
  const PreprocessResult pre = preprocess(g, opts);
  const auto ref = radius_stepping(pre.graph, 0, pre.radius);

  const test::WorkerGuard guard;
  for (const int workers : {1, 2, 3, 8}) {
    set_num_workers(workers);
    // Radii and shortcuts must also be schedule-independent.
    const PreprocessResult pre2 = preprocess(g, opts);
    EXPECT_EQ(pre2.radius, pre.radius) << workers;
    EXPECT_EQ(pre2.graph, pre.graph) << workers;
    EXPECT_EQ(radius_stepping(pre2.graph, 0, pre2.radius), ref) << workers;
  }
}

TEST(Integration, MultiSourceConsistencyTriangleInequality) {
  const Graph g = assign_uniform_weights(gen::road_network(20, 20, 9), 17);
  const auto radius = all_radii(g, 8);
  const auto da = radius_stepping(g, 0, radius);
  const auto db = radius_stepping(g, 7, radius);
  // |d(a,v) - d(b,v)| <= d(a,b) for all v (undirected metric property).
  const Dist dab = da[7];
  ASSERT_NE(dab, kInfDist);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (da[v] == kInfDist) continue;
    const Dist gap = da[v] > db[v] ? da[v] - db[v] : db[v] - da[v];
    EXPECT_LE(gap, dab) << v;
  }
}

}  // namespace
}  // namespace rs
