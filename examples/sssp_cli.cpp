// sssp_cli — command-line front end for the whole library. The tool a user
// reaches for to run the paper's pipeline on their own graphs (including
// the original DIMACS/SNAP datasets, via the .gr / edge-list readers).
//
//   sssp_cli gen --type grid2d --side 200 --weights 10000 -o g.gr
//   sssp_cli stats g.gr
//   sssp_cli preprocess g.gr --rho 32 --k 9 --heuristic dp -o g.pre
//   sssp_cli query g.gr g.pre --source 0 --targets 39999,1250
//   sssp_cli run g.gr --algo all --source 0
//
// The query subcommand is a targeted serve: with --targets (or --target)
// it sends one QueryRequest and prints per-target distance + path without
// ever materializing the O(n) distance vector — and the engine terminates
// early once every target is settled.
//
// Every subcommand rejects a flag it does not read with
// "error: unknown flag <flag>" and exit status 1.
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "baseline/bellman_ford.hpp"
#include "baseline/delta_stepping.hpp"
#include "baseline/dijkstra.hpp"
#include "cli_args.hpp"
#include "core/engine.hpp"
#include "core/radii.hpp"
#include "core/radius_stepping.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "graph/weights.hpp"
#include "parallel/timer.hpp"
#include "shortcut/serialize.hpp"

namespace {

using namespace rs;
using namespace rs::examples;

Graph load_graph(const std::string& path) {
  if (path.size() > 3 && path.substr(path.size() - 3) == ".gr") {
    return io::read_dimacs_file(path);
  }
  return io::read_edge_list_file(path);
}

int cmd_gen(const Args& args) {
  constexpr long kMaxWeight = std::numeric_limits<Weight>::max();
  constexpr long kMaxLong = std::numeric_limits<long>::max();
  const std::string type = args.get("--type", "grid2d");
  // --side and --n are read only by the types that use them, so
  // reject_unread() refuses them for the others. The vertex count side^2
  // (side^3 for grid3d) must fit a Vertex.
  const auto side = [&](long max_side) {
    return static_cast<Vertex>(get_checked(args, "--side", 100, 1, max_side));
  };
  const auto count = [&] {
    return static_cast<Vertex>(get_checked(args, "--n", 10000, 1, kMaxVertex));
  };
  const auto seed =
      static_cast<std::uint64_t>(get_checked(args, "--seed", 1, 0, kMaxLong));
  // 0 keeps unit weights; otherwise weights are uniform in [1, wmax].
  const auto wmax =
      static_cast<Weight>(get_checked(args, "--weights", 0, 0, kMaxWeight));
  const std::string out = args.get("-o", args.get("--out", "graph.gr"));

  Graph g;
  if (type == "grid2d") {
    const Vertex s = side(65535);
    g = gen::grid2d(s, s);
  } else if (type == "grid3d") {
    const Vertex s = side(1625);
    g = gen::grid3d(s, s, s);
  } else if (type == "road") {
    const Vertex s = side(65535);
    g = gen::road_network(s, s, seed);
  } else if (type == "ba" || type == "web") {
    const Vertex n = count();
    g = gen::barabasi_albert(
        n, static_cast<Vertex>(get_checked(args, "--deg", 5, 1, kMaxVertex)),
        seed);
  } else if (type == "rmat") {
    // rmat takes 2^scale vertices, scale <= 30; the factor's bound keeps
    // factor << scale inside an EdgeId.
    g = largest_component(gen::rmat(
        static_cast<std::uint32_t>(get_checked(args, "--scale", 14, 1, 30)),
        static_cast<EdgeId>(get_checked(args, "--factor", 8, 1, kMaxVertex)),
        seed));
  } else if (type == "er") {
    const Vertex n = count();
    g = largest_component(gen::erdos_renyi(
        n,
        static_cast<EdgeId>(
            get_checked(args, "--m", 4 * static_cast<long>(n), 0, kMaxLong)),
        seed));
  } else if (type == "rgg") {
    const Vertex n = count();
    // random_geometric takes a radius in (0, 1].
    const double radius =
        get_checked(args, "--rgg-radius-milli", 50, 1, 1000) / 1000.0;
    g = largest_component(gen::random_geometric(n, radius, seed));
  } else {
    std::fprintf(stderr, "unknown --type %s\n", type.c_str());
    return 1;
  }
  args.reject_unread();
  if (wmax > 0) g = assign_uniform_weights(g, seed + 7, 1, wmax);
  io::write_dimacs_file(g, out);
  std::printf("wrote %s: %u vertices, %llu edges\n", out.c_str(),
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_undirected_edges()));
  return 0;
}

int cmd_stats(const Args& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr, "usage: sssp_cli stats <graph>\n");
    return 1;
  }
  args.reject_unread();
  const Graph g = load_graph(args.positional()[0]);
  const DegreeStats d = degree_stats(g);
  std::printf("vertices    %u\n", g.num_vertices());
  std::printf("edges       %llu\n",
              static_cast<unsigned long long>(g.num_undirected_edges()));
  std::printf("degree      min %llu  max %llu  mean %.2f\n",
              static_cast<unsigned long long>(d.min),
              static_cast<unsigned long long>(d.max), d.mean);
  std::printf("weights     min %u  max %u (L)\n", g.min_weight(),
              g.max_weight());
  std::printf("connected   %s\n", is_connected(g) ? "yes" : "no");
  std::printf("diameter    >= %u hops (double sweep)\n", approx_diameter(g));
  return 0;
}

int cmd_preprocess(const Args& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr, "usage: sssp_cli preprocess <graph> [--rho R] [--k K] "
                         "[--heuristic dp|greedy|full|none] [-o out.pre]\n");
    return 1;
  }
  PreprocessOptions opts;
  opts.rho =
      static_cast<Vertex>(get_checked(args, "--rho", opts.rho, 1, kMaxVertex));
  opts.k = static_cast<Vertex>(get_checked(args, "--k", opts.k, 1, kMaxVertex));
  opts.settle_ties = get_checked(args, "--settle-ties", 1, 0, 1) != 0;
  const std::string h = args.get("--heuristic", "dp");
  const std::string out = args.get("-o", args.get("--out", "graph.pre"));
  if (h == "dp") {
    opts.heuristic = ShortcutHeuristic::kDP;
  } else if (h == "greedy") {
    opts.heuristic = ShortcutHeuristic::kGreedy;
  } else if (h == "full") {
    opts.heuristic = ShortcutHeuristic::kFull1Rho;
  } else if (h == "none") {
    opts.heuristic = ShortcutHeuristic::kNone;
  } else {
    std::fprintf(stderr, "unknown --heuristic %s\n", h.c_str());
    return 1;
  }
  args.reject_unread();
  const Graph g = load_graph(args.positional()[0]);
  Timer t;
  const PreprocessResult pre = preprocess(g, opts);
  save_preprocessing_file(pre, out);
  std::printf("preprocessed in %.2fs: +%llu edges (%.3fx), wrote %s\n",
              t.seconds(), static_cast<unsigned long long>(pre.added_edges),
              pre.added_factor, out.c_str());
  return 0;
}

/// Parses "a,b,c" into vertex ids (throws std::invalid_argument /
/// std::out_of_range on garbage, trailing junk, or ids that do not fit a
/// Vertex — caught by main's handler).
std::vector<Vertex> parse_vertex_list(const std::string& csv) {
  std::vector<Vertex> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const std::string item = csv.substr(pos, comma - pos);
    if (!item.empty()) {
      std::size_t used = 0;
      const unsigned long long v = std::stoull(item, &used);
      if (used != item.size() ||
          v > std::numeric_limits<Vertex>::max()) {
        throw std::invalid_argument("bad vertex id in --targets: " + item);
      }
      out.push_back(static_cast<Vertex>(v));
    }
    pos = comma + 1;
  }
  return out;
}

int cmd_query(const Args& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr,
                 "usage: sssp_cli query <graph> <pre> --source S "
                 "[--targets A,B,C | --target T] [--paths 0|1]\n");
    return 1;
  }
  QueryRequest req;
  req.source = static_cast<Vertex>(
      get_checked(args, "--source", 0, 0, kMaxVertex));
  req.targets = parse_vertex_list(args.get("--targets", ""));
  const long single = get_checked(args, "--target", -1, 0, kMaxVertex);
  if (single >= 0) req.targets.push_back(static_cast<Vertex>(single));
  const bool paths = get_checked(args, "--paths", 1, 0, 1) != 0;
  req.want_paths = !req.targets.empty() && paths;
  // No targets: a classic full-SSSP probe (stats + full vector held only
  // long enough to report). With targets the response is O(|targets|).
  req.want_full_distances = req.targets.empty();
  args.reject_unread();

  const Graph g = load_graph(args.positional()[0]);
  const SsspEngine engine(g, load_preprocessing_file(args.positional()[1]));

  Timer t;
  const QueryResponse resp = engine.serve(req);
  std::printf("query from %u: %.1f ms, %zu steps%s, %zu substeps "
              "(max %zu/step), %zu settled\n",
              req.source, t.millis(), resp.stats.steps,
              resp.stats.early_exit ? " (early exit)" : "",
              resp.stats.substeps, resp.stats.max_substeps_in_step,
              resp.stats.settled);

  for (const TargetResult& tr : resp.targets) {
    if (tr.dist == kInfDist) {
      std::printf("d(%u, %u) = unreachable\n", req.source, tr.target);
      continue;
    }
    std::printf("d(%u, %u) = %llu\n", req.source, tr.target,
                static_cast<unsigned long long>(tr.dist));
    if (!req.want_paths) continue;
    const std::vector<Vertex>& path = tr.path;
    std::printf("path (%zu hops):", path.size() - 1);
    const std::size_t show = std::min<std::size_t>(path.size(), 12);
    for (std::size_t i = 0; i < show; ++i) std::printf(" %u", path[i]);
    if (path.size() > show) std::printf(" ... %u", path.back());
    std::printf("\n");
  }
  return 0;
}

int cmd_run(const Args& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr, "usage: sssp_cli run <graph> [--algo all|dijkstra|"
                         "delta|bf|rs] [--source S] [--rho R]\n");
    return 1;
  }
  const Vertex src =
      static_cast<Vertex>(get_checked(args, "--source", 0, 0, kMaxVertex));
  const std::string algo = args.get("--algo", "all");
  if (algo != "all" && algo != "dijkstra" && algo != "delta" && algo != "bf" &&
      algo != "rs") {
    throw std::invalid_argument("unknown --algo " + algo);
  }
  PreprocessOptions opts;
  opts.rho =
      static_cast<Vertex>(get_checked(args, "--rho", opts.rho, 1, kMaxVertex));
  args.reject_unread();
  const Graph g = load_graph(args.positional()[0]);

  std::vector<Dist> ref;
  auto report = [&](const char* name, const std::vector<Dist>& d, double ms) {
    std::size_t bad = 0;
    if (!ref.empty()) {
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        if (d[v] != ref[v]) ++bad;
      }
    }
    std::printf("  %-16s %9.1f ms%s\n", name, ms,
                ref.empty() ? "  (reference)"
                            : (bad == 0 ? "  ok" : "  MISMATCH"));
    if (ref.empty()) ref = d;
    return bad;
  };

  std::size_t mismatches = 0;
  if (algo == "all" || algo == "dijkstra") {
    Timer t;
    const auto d = dijkstra(g, src);
    mismatches += report("dijkstra", d, t.millis());
  }
  if (algo == "all" || algo == "delta") {
    Timer t;
    const auto d = delta_stepping(g, src);
    mismatches += report("delta-stepping", d, t.millis());
  }
  if (algo == "all" || algo == "bf") {
    Timer t;
    const auto d = bellman_ford_parallel(g, src);
    mismatches += report("bellman-ford", d, t.millis());
  }
  if (algo == "all" || algo == "rs") {
    Timer tp;
    const PreprocessResult pre = preprocess(g, opts);
    const double prep_ms = tp.millis();
    Timer t;
    RunStats stats;
    const auto d = radius_stepping(pre.graph, src, pre.radius, &stats);
    mismatches += report("radius-stepping", d, t.millis());
    std::printf("    (preprocess %.1f ms, +%.2fx edges, %zu steps)\n",
                prep_ms, pre.added_factor, stats.steps);
  }
  return mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: sssp_cli <gen|stats|preprocess|query|run> ...\n");
    return 1;
  }
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    std::printf("usage: sssp_cli <gen|stats|preprocess|query|run> ...\n");
    return 0;
  }
  const Args args(argc, argv, 2);
  try {
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "preprocess") return cmd_preprocess(args);
    if (cmd == "query") return cmd_query(args);
    if (cmd == "run") return cmd_run(args);
    std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  }
  return 1;
}
