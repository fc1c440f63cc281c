// Road-network routing: the paper's headline use case, on the serving
// API. Preprocessing is paid once (§5.4 amortization); the router then
// answers point-to-point requests — source, a few destinations, give me
// distances and turn-by-turn paths — through SsspEngine::serve(). The
// engine terminates as soon as every requested destination is settled, so
// a nearby destination costs a fraction of the rounds of a full SSSP, and
// the response is O(|targets|): no n-sized vector per request.
//
//   ./road_router [side=192] [queries=5]
#include <cstdio>
#include <cstdlib>

#include "baseline/dijkstra.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "graph/weights.hpp"
#include "parallel/rng.hpp"
#include "parallel/timer.hpp"

int main(int argc, char** argv) {
  using namespace rs;
  const Vertex side = argc > 1 ? static_cast<Vertex>(std::atoi(argv[1])) : 192;
  const int queries = argc > 2 ? std::atoi(argv[2]) : 5;

  // Synthetic road network (jittered lattice; see DESIGN.md §3) with
  // integer weights standing in for travel times.
  Graph g = assign_uniform_weights(gen::road_network(side, side, /*seed=*/7),
                                   /*seed=*/11);
  const DegreeStats deg = degree_stats(g);
  std::printf("road network: %u vertices, %llu edges, avg degree %.2f, "
              "hop diameter >= %u\n",
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_undirected_edges()),
              deg.mean, approx_diameter(g));

  // One-time preprocessing with the library defaults.
  Timer prep_timer;
  const PreprocessOptions opts;
  const SsspEngine engine(g, opts);
  std::printf("preprocess (rho=%u, k=%u, dp): %.2fs, +%.2fx edges\n",
              opts.rho, opts.k, prep_timer.seconds(),
              engine.preprocessing().added_factor);

  // Point-to-point requests from random sources to three random
  // destinations each, served from one warm context + reused response
  // (the zero-allocation hot path).
  const SplitRng rng(123);
  QueryContext ctx;
  QueryResponse resp;
  double serve_total = 0.0;
  double dj_total = 0.0;
  const Vertex n = g.num_vertices();
  for (int qi = 0; qi < queries; ++qi) {
    QueryRequest req;
    req.source = static_cast<Vertex>(
        rng.bounded(0, static_cast<std::uint64_t>(qi), n));
    for (std::uint64_t t = 0; t < 3; ++t) {
      req.targets.push_back(
          static_cast<Vertex>(rng.bounded(1 + t, qi, n)));
    }
    req.want_paths = true;

    Timer t1;
    engine.serve(req, ctx, resp);
    serve_total += t1.seconds();

    // Cross-check the targeted answers against a full Dijkstra run.
    Timer t2;
    const std::vector<Dist> ref = dijkstra(g, req.source);
    dj_total += t2.seconds();
    std::size_t bad = 0;
    for (const TargetResult& tr : resp.targets) {
      if (tr.dist != ref[tr.target]) ++bad;
    }
    std::printf("  query %d (src %u): %zu steps%s, 3 routes (%zu/%zu/%zu "
                "hops), %s\n",
                qi, req.source, resp.stats.steps,
                resp.stats.early_exit ? ", early exit" : "",
                resp.targets[0].path.empty() ? 0
                                             : resp.targets[0].path.size() - 1,
                resp.targets[1].path.empty() ? 0
                                             : resp.targets[1].path.size() - 1,
                resp.targets[2].path.empty() ? 0
                                             : resp.targets[2].path.size() - 1,
                bad == 0 ? "matches dijkstra" : "MISMATCH");
    if (bad != 0) return 1;
  }
  std::printf("avg per request: targeted serve %.1f ms, full dijkstra "
              "%.1f ms\n",
              1e3 * serve_total / queries, 1e3 * dj_total / queries);
  return 0;
}
