// Shared helpers for the test suite: a palette of small-but-interesting
// graphs that the SSSP batteries sweep over, the full-distance request
// their answers are checked against, the weight of a returned path, and a
// scoped worker count.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/stats.hpp"
#include "graph/weights.hpp"
#include "parallel/primitives.hpp"
#include "parallel/rng.hpp"

namespace rs::test {

/// Restores the worker count it found on scope exit, so a failing
/// assertion cannot leak a worker count into later tests. The int form
/// also sets `n` workers for the scope.
class WorkerGuard {
 public:
  WorkerGuard() = default;
  explicit WorkerGuard(int n) { set_num_workers(n); }
  ~WorkerGuard() { set_num_workers(before_); }
  WorkerGuard(const WorkerGuard&) = delete;
  WorkerGuard& operator=(const WorkerGuard&) = delete;

  /// The worker count when the guard was made.
  int before() const { return before_; }

 private:
  int before_ = num_workers();
};

/// The one-way ring 0 -> 1 -> ... -> n-1 -> 0 with unit weights: a graph
/// that is not symmetric (is_symmetric), which every shortcut-adding
/// preprocessor refuses.
inline Graph one_way_ring(Vertex n) {
  BuildOptions directed;
  directed.symmetrize = false;
  std::vector<EdgeTriple> edges;
  for (Vertex v = 0; v < n; ++v) {
    edges.push_back({v, static_cast<Vertex>((v + 1) % n), 1});
  }
  return build_graph(n, std::move(edges), directed);
}

/// A full-distance request from `source`: the exhaustive run that
/// targeted, batched and cached answers are checked against.
inline QueryRequest full_request(Vertex source) {
  QueryRequest req;
  req.source = source;
  req.want_full_distances = true;
  return req;
}

/// The sum of original-graph edge weights along `path`, failing the test
/// if any hop is not an original arc. Parallel arcs: cheapest one counts,
/// which is what a shortest path must use anyway.
inline Dist path_weight(const Graph& g, const std::vector<Vertex>& path) {
  Dist total = 0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    Dist best = kInfDist;
    for (EdgeId e = g.first_arc(path[i - 1]); e < g.last_arc(path[i - 1]);
         ++e) {
      if (g.arc_target(e) == path[i]) {
        best = std::min(best, static_cast<Dist>(g.arc_weight(e)));
      }
    }
    EXPECT_NE(best, kInfDist) << "hop " << i << " is not an original edge";
    if (best == kInfDist) return kInfDist;
    total += best;
  }
  return total;
}

/// One full_request() per source, in order.
inline std::vector<QueryRequest> full_requests(
    const std::vector<Vertex>& sources) {
  std::vector<QueryRequest> out;
  out.reserve(sources.size());
  for (const Vertex s : sources) out.push_back(full_request(s));
  return out;
}

struct GraphCase {
  std::string name;
  Graph graph;
};

/// Connected weighted graphs of assorted shapes (weights 1..100 keeps
/// distances small and collisions plentiful — a stress for tie handling).
inline std::vector<GraphCase> weighted_suite(std::uint64_t seed = 1) {
  std::vector<GraphCase> out;
  out.push_back(
      {"grid2d", assign_uniform_weights(gen::grid2d(14, 17), seed, 1, 100)});
  out.push_back({"grid3d", assign_uniform_weights(gen::grid3d(6, 5, 7),
                                                  seed + 1, 1, 100)});
  out.push_back({"road", assign_uniform_weights(gen::road_network(15, 15, seed),
                                                seed + 2, 1, 100)});
  out.push_back({"scalefree",
                 assign_uniform_weights(gen::barabasi_albert(300, 3, seed),
                                        seed + 3, 1, 100)});
  out.push_back({"er", assign_uniform_weights(
                           largest_component(gen::erdos_renyi(300, 900, seed)),
                           seed + 4, 1, 100)});
  out.push_back(
      {"chain", assign_uniform_weights(gen::chain(120), seed + 5, 1, 100)});
  out.push_back(
      {"star", assign_uniform_weights(gen::star(80), seed + 6, 1, 100)});
  out.push_back({"complete", assign_uniform_weights(gen::complete(40),
                                                    seed + 7, 1, 100)});
  out.push_back({"bipartite_chain",
                 assign_uniform_weights(gen::bipartite_chain(8, 6), seed + 8, 1,
                                        100)});
  out.push_back({"rgg", largest_component(
                            gen::random_geometric(400, 0.09, seed + 9, 100))});
  return out;
}

/// Graphs that violate the paper's simple-undirected assumption: directed
/// arcs, self-loops, and parallel arcs with differing weights, all KEPT in
/// the CSR (build_graph's clean-ups disabled). Every SSSP engine must still
/// be exact on these — self-loops can never relax (w >= 1) and only the
/// lightest parallel arc can matter, but the code has to get there without
/// the builder sanitizing the input for it.
inline std::vector<GraphCase> adversarial_suite(std::uint64_t seed = 1) {
  BuildOptions keep_everything;
  keep_everything.symmetrize = false;
  keep_everything.remove_self_loops = false;
  keep_everything.dedup = false;

  std::vector<GraphCase> out;

  {  // Directed cycle + chords + a self-loop on every third vertex +
     // duplicated chords with different weights.
    const Vertex n = 120;
    const SplitRng rng(seed);
    std::vector<EdgeTriple> edges;
    for (Vertex v = 0; v < n; ++v) {
      edges.push_back({v, static_cast<Vertex>((v + 1) % n),
                       static_cast<Weight>(1 + rng.bounded(0, v, 60))});
      if (v % 3 == 0) {
        edges.push_back({v, v, static_cast<Weight>(1 + rng.bounded(1, v, 9))});
      }
    }
    for (EdgeId i = 0; i < 300; ++i) {
      const Vertex u = static_cast<Vertex>(rng.bounded(2, i, n));
      const Vertex v = static_cast<Vertex>(rng.bounded(3, i, n));
      const auto w = static_cast<Weight>(1 + rng.bounded(4, i, 60));
      edges.push_back({u, v, w});
      if (i % 4 == 0) {  // parallel arc, usually with a different weight
        edges.push_back({u, v, static_cast<Weight>(1 + rng.bounded(5, i, 60))});
      }
    }
    out.push_back({"directed_messy",
                   build_graph(n, std::move(edges), keep_everything)});
  }

  {  // Undirected-by-hand multigraph: both arc directions listed explicitly
     // so parallel arcs and self-loops survive symmetrization-free building.
    const Vertex n = 40;
    const SplitRng rng(seed + 1);
    std::vector<EdgeTriple> edges;
    for (Vertex v = 0; v + 1 < n; ++v) {
      const auto w = static_cast<Weight>(1 + rng.bounded(0, v, 30));
      edges.push_back({v, static_cast<Vertex>(v + 1), w});
      edges.push_back({static_cast<Vertex>(v + 1), v, w});
      // A heavier parallel edge that must never win.
      edges.push_back({v, static_cast<Vertex>(v + 1),
                       static_cast<Weight>(w + 100)});
      edges.push_back({static_cast<Vertex>(v + 1), v,
                       static_cast<Weight>(w + 100)});
    }
    for (Vertex v = 0; v < n; v += 5) {
      edges.push_back({v, v, 1});
      edges.push_back({v, v, 7});
    }
    out.push_back({"multigraph_path",
                   build_graph(n, std::move(edges), keep_everything)});
  }

  {  // Star where some spokes point inward only, some outward only, plus
     // self-loops on the center — asymmetric reachability from vertex 0.
    const Vertex n = 30;
    std::vector<EdgeTriple> edges;
    edges.push_back({0, 0, 3});
    for (Vertex v = 1; v < n; ++v) {
      if (v % 2 == 0) {
        edges.push_back({0, v, static_cast<Weight>(v)});  // outward
      } else {
        edges.push_back({v, 0, static_cast<Weight>(v)});  // inward only
      }
    }
    out.push_back({"half_directed_star",
                   build_graph(n, std::move(edges), keep_everything)});
  }

  return out;
}

/// Same shapes with unit weights.
inline std::vector<GraphCase> unweighted_suite(std::uint64_t seed = 1) {
  std::vector<GraphCase> out;
  for (auto& c : weighted_suite(seed)) {
    out.push_back({c.name, assign_unit_weights(c.graph)});
  }
  return out;
}

}  // namespace rs::test
