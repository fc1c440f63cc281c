// dynamic_weights — the dynamic-graph API tour, bottom to top:
//
//   1. apply_weight_updates: batch weight edits with undirected
//      semantics (both arc directions move together), reported as
//      per-arc ArcChange deltas.
//   2. IncrementalPreprocessor: recompute only the dirty balls after an
//      update and splice a PreprocessResult that is bit-identical to a
//      cold rebuild.
//   3. DynamicSsspService: the serving gearbox — stage() buffers edits
//      while the published epoch keeps answering, flush()
//      re-preprocesses incrementally and swaps the epoch with zero
//      serving downtime.
//
// Every answer is verified against a from-scratch Dijkstra on the graph
// of the epoch that served it; exits non-zero on any mismatch (the CTest
// smoke run).
#include <cstdio>
#include <random>
#include <vector>

#include "baseline/dijkstra.hpp"
#include "graph/generators.hpp"
#include "graph/update.hpp"
#include "graph/weights.hpp"
#include "serve/dynamic.hpp"
#include "shortcut/incremental.hpp"
#include "shortcut/shortcut.hpp"

using namespace rs;

namespace {

/// A batch of random re-weightings over arcs that exist in `g`.
std::vector<WeightUpdate> random_batch(const Graph& g, std::size_t count,
                                       std::mt19937& rng) {
  std::uniform_int_distribution<Weight> weight(1, 500);
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

int check(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "dynamic_weights: FAILED: %s\n", what);
  return ok ? 0 : 1;
}

}  // namespace

int main() {
  std::mt19937 rng(9);
  Graph g = gen::road_network(16, 16, /*seed=*/5);
  g = assign_uniform_weights(g, /*seed=*/6, 1, 500);
  int failures = 0;

  // --- 1: batch updates --------------------------------------------------
  UpdateApplication app = apply_weight_updates(g, random_batch(g, 6, rng));
  std::printf("updated %zu arcs (both directions of each edge)\n",
              app.changes.size());
  bool deltas_ok = !app.changes.empty();
  for (const ArcChange& c : app.changes) {
    deltas_ok = deltas_ok && c.w_old == g.arc_weight(c.arc) &&
                c.w_new == app.graph.arc_weight(c.arc);
  }
  failures += check(deltas_ok, "ArcChange deltas match both graphs");
  g = std::move(app.graph);

  // --- 2: incremental re-preprocessing ----------------------------------
  PreprocessOptions popts;
  popts.rho = 12;
  popts.k = 2;
  IncrementalPreprocessor inc(g, popts);
  const IncrementalUpdateStats istats =
      inc.apply(random_batch(g, 4, rng));
  std::printf("incremental: %zu/%zu balls recomputed\n", istats.dirty_balls,
              istats.total_balls);
  const PreprocessResult cold = preprocess(inc.graph(), popts);
  failures += check(inc.result().graph == cold.graph &&
                        inc.result().radius == cold.radius,
                    "incremental result bit-identical to cold rebuild");

  // --- 3: the serving gearbox -------------------------------------------
  serve::DynamicSsspService::Options dopts;
  dopts.preprocess = popts;
  serve::DynamicSsspService dyn(inc.graph(), dopts);
  const Graph& published = inc.graph();

  const std::vector<WeightUpdate> batch = random_batch(published, 5, rng);
  const Graph shadow = apply_weight_updates(published, batch).graph;
  dyn.stage(batch);

  QueryRequest req;
  req.source = 0;
  req.targets.push_back(static_cast<Vertex>(shadow.num_vertices() - 1));
  failures += check(dyn.server().serve_sync(req).targets[0].dist ==
                        dijkstra(published, 0)[req.targets[0]],
                    "staged edits: the published epoch still answers");

  const serve::UpdateReport report = dyn.flush();
  std::printf("flushed: epoch %llu, %zu/%zu balls dirty, %.2f ms\n",
              static_cast<unsigned long long>(report.epoch),
              report.dirty_balls, report.total_balls,
              report.incremental_ms);
  failures += check(dyn.server().serve_sync(req).targets[0].dist ==
                        dijkstra(shadow, 0)[req.targets[0]],
                    "swapped epoch serves the new weights natively");
  failures += check(dyn.server().stats().epoch == 2,
                    "one flush advances the epoch once");

  if (failures != 0) return 1;
  std::printf("dynamic_weights: all checks passed\n");
  return 0;
}
