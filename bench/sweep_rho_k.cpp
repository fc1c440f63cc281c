// (rho, k) sweep: the measurement behind PreprocessOptions{}'s rho and k.
// Paper §5.4 picks rho by step count ("rho in 50-100 gives the best bang
// for the buck"); this driver picks it by wall-clock time, setup included.
//
// Grid: rho in {16, 32, 64} x k in {3, 5, 7, 9, 12}, DP heuristic, on the
// paper-weighted road and web graphs of the shortcut suite at RS_SCALE.
// `full` is perfbench's sssp-full shape (road n=1M, web n=300k); the
// default scale gives road n=25.6k (road-p2p's shape) and web n=30k.
// Per candidate it prints SsspEngine construction seconds, arc inflation
// (arcs of the preprocessed graph over the original's), arcs scanned per
// one-target query, steps and substeps per full query, full-query p50 /
// p90 at one worker and at num_workers(), and one-target p50 at one
// worker.
//
// Each query of a candidate runs back to back with the same query on a
// fixed (rho = 64, k = 3) reference engine, the order alternating per
// source, and the "/ref" columns divide the candidate's p50 by the
// reference's: drift of the host over a long run hits both alike. The
// reference does not follow PreprocessOptions{}, so ratios from runs
// before and after a change of the default stay comparable. Sources are
// spread evenly over the vertex-id range, because the generators number
// vertices by structure (the web core before its periphery). Columns:
// f1 and fN are full queries at one worker and at N = num_workers(), o1
// one-target queries at one worker, and o1_scan the mean arcs scanned by
// one of those.
//
// Every answer, the reference's included, is checked against Dijkstra on
// the original graph; a mismatch or a step over k + 2 substeps exits 1.
// Writes BENCH_sweep_rho_k.json, every metric labelled with its
// candidate's rho and k, and the /ref ratios with ref_rho and ref_k too.
//
// Knobs: RS_SCALE / RS_THREADS as usual, RS_SOURCES (default 100).
// RS_SCALE=full reproduces the choice of the default.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "baseline/dijkstra.hpp"
#include "core/engine.hpp"
#include "exp_common.hpp"
#include "graph/generators.hpp"
#include "parallel/primitives.hpp"
#include "parallel/rng.hpp"
#include "parallel/timer.hpp"

namespace {

using namespace rs;

constexpr Vertex kRefRho = 64;
constexpr Vertex kRefK = 3;

std::uint64_t hash_dist(const std::vector<Dist>& d) {
  std::uint64_t h = hash64(d.size());
  for (const Dist x : d) h = hash64(h ^ x);
  return h;
}

/// Nearest-rank q-quantile of `v` (sorts it).
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// One source's queries and Dijkstra's answers to them.
struct Probe {
  Vertex source = 0;
  Vertex target = 0;       // of the one-target query
  std::uint64_t hash = 0;  // of the full distance row
  Dist target_dist = 0;
};

/// `count` sources spread evenly over [0, n), each with a seeded target.
std::vector<Probe> make_probes(const Graph& g, int count) {
  const std::uint64_t n = g.num_vertices();
  const SplitRng rng(4242);
  std::vector<Probe> probes(static_cast<std::size_t>(count));
#pragma omp parallel for schedule(dynamic, 1) num_threads(num_workers())
  for (int i = 0; i < count; ++i) {
    Probe& p = probes[static_cast<std::size_t>(i)];
    p.source = static_cast<Vertex>((2 * std::uint64_t(i) + 1) * n /
                                   (2 * std::uint64_t(count)));
    p.target =
        static_cast<Vertex>(rng.bounded(0, static_cast<std::uint64_t>(i), n));
    const std::vector<Dist> d = dijkstra(g, p.source);
    p.hash = hash_dist(d);
    p.target_dist = d[p.target];
  }
  return probes;
}

/// Per-query milliseconds of one engine, one entry per source and mode.
struct Times {
  std::vector<double> full_1w, full_nw, one_1w;
};

/// Query counts and checks of one engine over the sweep of one candidate.
struct Tally {
  double steps = 0;
  double substeps = 0;
  double one_target_scanned = 0;  // arcs
  int failures = 0;
};

class Sweep {
 public:
  Sweep(int workers, Vertex n) : workers_(workers), ctx_(n) {}

  /// Serves `p`'s three queries on `eng` (full at one worker, full at
  /// `workers`, one-target at one worker), appending their times.
  void run(const SsspEngine& eng, const Probe& p, Times& times, Tally& tally) {
    QueryRequest full;
    full.source = p.source;
    full.want_full_distances = true;
    times.full_1w.push_back(serve(eng, full, 1, p, tally));
    tally.steps += double(resp_.stats.steps);
    tally.substeps += double(resp_.stats.substeps);
    times.full_nw.push_back(serve(eng, full, workers_, p, tally));
    QueryRequest one;
    one.source = p.source;
    one.targets = {p.target};
    times.one_1w.push_back(serve(eng, one, 1, p, tally));
    tally.one_target_scanned += double(resp_.stats.edges_scanned);
  }

 private:
  double serve(const SsspEngine& eng, const QueryRequest& req, int workers,
               const Probe& p, Tally& tally) {
    set_num_workers(workers);
    Timer t;
    eng.serve(req, ctx_, resp_);
    const double ms = t.millis();
    const bool right = req.want_full_distances
                           ? hash_dist(resp_.dist) == p.hash
                           : resp_.targets.size() == 1 &&
                                 resp_.targets[0].dist == p.target_dist;
    const PreprocessOptions& o = eng.preprocessing().options;
    if (!right || resp_.stats.max_substeps_in_step > std::size_t{o.k} + 2) {
      std::fprintf(stderr, "FAIL rho=%u k=%u source=%u workers=%d: %s\n",
                   o.rho, o.k, p.source, workers,
                   right ? "step over k + 2 substeps" : "wrong distances");
      ++tally.failures;
    }
    return ms;
  }

  int workers_;
  QueryContext ctx_;
  QueryResponse resp_;
};

}  // namespace

int main() {
  using namespace rs::exp;
  Scale s = scale_from_env();
  s.sources = static_cast<int>(env_int64("RS_SOURCES", 100));
  const int workers = num_workers();
  std::vector<NamedGraph> graphs;
  graphs.push_back({"road", gen::road_network(s.road_side, s.road_side, 101)});
  graphs.push_back({"web", gen::web_graph(s.web_n, 10, 404)});
  for (NamedGraph& ng : graphs) ng.graph = paper_weighted(ng.graph);
  print_header("Sweep of (rho, k) by wall-clock time", s, graphs);
  std::printf("reference rho=%u k=%u; f1/o1 run at 1 worker, fN at N=%d; "
              "o1_scan is arcs scanned per one-target query; times in ms\n\n",
              kRefRho, kRefK, workers);

  BenchJson json("sweep_rho_k", s);
  int failures = 0;
  for (const auto& [name, g] : graphs) {
    const std::vector<Probe> probes = make_probes(g, s.sources);
    PreprocessOptions ref_opts;
    ref_opts.rho = kRefRho;
    ref_opts.k = kRefK;
    const SsspEngine ref(g, ref_opts);
    Sweep sweep(workers, g.num_vertices());

    std::printf("  graph rho  k  setup_s arcs_x  o1_scan   steps  substeps"
                "   f1_p50   f1_p90   fN_p50   fN_p90   o1_p50  f1/ref fN/ref"
                " o1/ref\n");
    for (const Vertex rho : {Vertex{16}, Vertex{32}, Vertex{64}}) {
      for (const Vertex k :
           {Vertex{3}, Vertex{5}, Vertex{7}, Vertex{9}, Vertex{12}}) {
        PreprocessOptions opts;
        opts.rho = rho;
        opts.k = k;
        Timer build;
        const SsspEngine eng(g, opts);
        const double setup_s = build.seconds();
        const double arcs_x = double(eng.preprocessed_graph().num_edges()) /
                              double(g.num_edges());

        Times cand_t, ref_t;
        Tally cand, ref_tally;
        for (std::size_t i = 0; i < probes.size(); ++i) {
          if (i % 2 == 0) {
            sweep.run(eng, probes[i], cand_t, cand);
            sweep.run(ref, probes[i], ref_t, ref_tally);
          } else {
            sweep.run(ref, probes[i], ref_t, ref_tally);
            sweep.run(eng, probes[i], cand_t, cand);
          }
        }
        set_num_workers(workers);
        failures += cand.failures + ref_tally.failures;

        const double q = double(probes.size());
        const double f1 = quantile(cand_t.full_1w, 0.5);
        const double f1_90 = quantile(cand_t.full_1w, 0.9);
        const double fn = quantile(cand_t.full_nw, 0.5);
        const double fn_90 = quantile(cand_t.full_nw, 0.9);
        const double o1 = quantile(cand_t.one_1w, 0.5);
        const double f1_ref = f1 / quantile(ref_t.full_1w, 0.5);
        const double fn_ref = fn / quantile(ref_t.full_nw, 0.5);
        const double o1_ref = o1 / quantile(ref_t.one_1w, 0.5);
        const double o1_scan = cand.one_target_scanned / q;
        std::printf("  %-5s %3u %2u %8.3f %6.2f %8.0f %7.1f %9.1f %8.3f "
                    "%8.3f %8.3f %8.3f %8.3f  %6.3f %6.3f %6.3f\n",
                    name.c_str(), rho, k, setup_s, arcs_x, o1_scan,
                    cand.steps / q, cand.substeps / q, f1, f1_90, fn, fn_90, o1,
                    f1_ref, fn_ref, o1_ref);
        std::fflush(stdout);

        const BenchJson::Labels labels = {{"graph", name},
                                          {"rho", std::to_string(rho)},
                                          {"k", std::to_string(k)}};
        json.add("setup_s", setup_s, "s", labels);
        json.add("arc_inflation", arcs_x, "x", labels);
        json.add("steps", cand.steps / q, "count", labels);
        json.add("substeps", cand.substeps / q, "count", labels);
        json.add("one_target_arcs_scanned", o1_scan, "count", labels);
        // Per-worker-count labels; the /ref ratios also name their reference.
        const auto at = [&labels](int w, bool vs_ref) {
          BenchJson::Labels l = labels;
          l.push_back({"workers", std::to_string(w)});
          if (vs_ref) {
            l.push_back({"ref_rho", std::to_string(kRefRho)});
            l.push_back({"ref_k", std::to_string(kRefK)});
          }
          return l;
        };
        json.add("full_ms_p50", f1, "ms", at(1, false));
        json.add("full_ms_p90", f1_90, "ms", at(1, false));
        json.add("full_p50_vs_ref", f1_ref, "x", at(1, true));
        json.add("one_target_ms_p50", o1, "ms", at(1, false));
        json.add("one_target_p50_vs_ref", o1_ref, "x", at(1, true));
        json.add("full_ms_p50", fn, "ms", at(workers, false));
        json.add("full_ms_p90", fn_90, "ms", at(workers, false));
        json.add("full_p50_vs_ref", fn_ref, "x", at(workers, true));
      }
    }
    std::printf("\n");
  }
  const std::string path = json.write();
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());
  std::printf("Expected: setup roughly doubles with each doubling of rho, "
              "and a larger k cuts arcs, o1_scan and setup for more "
              "substeps; the /ref columns show what each buys per query.\n");
  if (failures != 0) {
    std::printf("%d failed answers\n", failures);
    return 1;
  }
  return 0;
}
