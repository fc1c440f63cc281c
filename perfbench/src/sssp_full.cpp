// sssp-full: one caller, closed loop, SsspEngine::serve with
// want_full_distances and a warm QueryContext, on the full-scale road
// network (n = 1M) and the webgraph (n = 300k). The server is
// bypassed; intra-query parallel radius stepping does nearly all the
// work. Road (hop diameter ~1000, hundreds of substeps per query) and web
// (tens of substeps) sit on opposite sides of any grain-size or
// Dijkstra-routing rule.
//
// One pass: construct both engines (setup_s is the sum); serve full-distance
// queries from 100 seeded sources per graph (stratified_sources), cycling,
// alternating road and
// web for the whole run. p50_ms / tail_ms (p90) are road queries,
// aux_p50_ms / aux_tail_ms (p90) web queries, rate_qps road queries per
// second, each the median over kWindows equal windows of the run, so a
// burst of a neighbour's load on a shared host moves one window, not the
// result. Every answer is hashed and checked against dijkstra on the
// original graph after the timed window.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "baseline/dijkstra.hpp"
#include "shortcut/shortcut.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr rs::Vertex kRoadSide = 1000;  // 1000 x 1000 lattice: n = 1M
constexpr rs::Vertex kWebN = 300'000;
constexpr std::size_t kSources = 100;
constexpr std::size_t kProbeSources = 4;
constexpr std::size_t kProbeP2p = 16;
constexpr int kWindows = 5;

/// kSources vertices of [0, n): one drawn uniformly from each of kSources
/// equal ranges of vertex ids, listed in bit-reversed range order (0, 64,
/// 32, 96, 16, ...) so that every stretch of the list spreads evenly over
/// the ranges. The generators number vertices by structure (lattice rows;
/// the web core before its periphery of tendrils), and a query's cost
/// follows its source's place; stratifying keeps the mix of cheap and
/// costly sources the same from seed to seed, while the seed still picks
/// every source.
std::vector<rs::Vertex> stratified_sources(std::uint64_t seed, rs::Vertex n) {
  static_assert(kSources <= 128, "bit reversal below covers 7 bits");
  const rs::SplitRng rng(seed);
  std::vector<rs::Vertex> out;
  for (std::uint32_t i = 0; out.size() < kSources; ++i) {
    std::uint32_t range = 0;
    for (int b = 0; b < 7; ++b) range |= ((i >> b) & 1u) << (6 - b);
    if (range >= kSources) continue;
    const std::uint64_t lo = std::uint64_t{n} * range / kSources;
    const std::uint64_t hi = std::uint64_t{n} * (range + 1) / kSources;
    out.push_back(static_cast<rs::Vertex>(lo + rng.bounded(kPoolStream, range, hi - lo)));
  }
  return out;
}

struct Input {
  std::string name;
  rs::Graph graph;
  std::vector<rs::Vertex> sources;
  std::map<std::size_t, std::uint64_t> ref_hash;  // source index -> dijkstra hash
};

struct Answer {
  std::size_t source_index;
  std::uint64_t hash;
};

struct GraphPass {
  std::shared_ptr<const rs::SsspEngine> engine;
  std::vector<double> ms;
  std::vector<Answer> answers;
};

std::shared_ptr<const rs::SsspEngine> build(const Input& in, SpanLog* log) {
  if (log == nullptr) {
    return std::make_shared<const rs::SsspEngine>(in.graph, rs::PreprocessOptions{});
  }
  const Clock::time_point t0 = Clock::now();
  rs::PreprocessResult pre = rs::preprocess(in.graph, rs::PreprocessOptions{});
  const Clock::time_point t1 = Clock::now();
  log->add("setup.preprocess", t0, t1, 0, 0, in.graph.num_vertices());
  auto engine = std::make_shared<const rs::SsspEngine>(in.graph, std::move(pre));
  log->add("setup.engine", t1, Clock::now(), 0, 0, in.graph.num_vertices());
  return engine;
}

/// Serves one full-distance query from `in.sources[index]` on `gp.engine`
/// with the warm context `ctx`; returns its wall time (ms).
double serve_one(const Input& in, GraphPass& gp, std::size_t index, rs::QueryContext& ctx,
                 rs::QueryResponse& resp, SpanLog* log, Report& report) {
  rs::QueryRequest req;
  req.source = in.sources[index];
  req.want_full_distances = true;
  const Clock::time_point t0 = Clock::now();
  gp.engine->serve(req, ctx, resp);
  const Clock::time_point t1 = Clock::now();
  if (log != nullptr) log->add("serve.full", t0, t1, 0, 0, in.graph.num_vertices());
  gp.answers.push_back({index, hash_dist(resp.dist)});
  if (!substeps_within_bound(resp.stats, *gp.engine)) {
    report.violation(in.name + ": max_substeps_in_step " +
                     std::to_string(resp.stats.max_substeps_in_step) + " > k+2");
  }
  return ms_between(t0, t1);
}

/// Checks every answer against dijkstra rows of the original graph
/// (computed once per source, on up to load_threads() threads).
void verify(Input& in, const std::vector<Answer>& answers, PhaseCounts& counts) {
  std::vector<std::size_t> missing;
  for (const Answer& a : answers) {
    if (in.ref_hash.count(a.source_index) == 0) {
      in.ref_hash[a.source_index] = 0;
      missing.push_back(a.source_index);
    }
  }
  std::vector<std::uint64_t> hashes(missing.size());
  fork_join(missing.size(), load_threads(), [&](std::size_t i) {
    hashes[i] = hash_dist(rs::dijkstra(in.graph, in.sources[missing[i]]));
  });
  for (std::size_t i = 0; i < missing.size(); ++i) in.ref_hash[missing[i]] = hashes[i];
  for (const Answer& a : answers) {
    ++counts.sent;
    ++(a.hash == in.ref_hash[a.source_index] ? counts.ok : counts.wrong);
  }
}

struct Pass {
  EndToEnd e2e;
  GraphPass road;
  GraphPass web;
};

Pass run_pass(const RunArgs& args, Input& road, Input& web, SpanLog* log, Report& report) {
  const std::string tag = log != nullptr ? "traced/" : "";
  Pass pass;
  const Clock::time_point t0 = Clock::now();
  pass.road.engine = build(road, log);
  pass.web.engine = build(web, log);
  pass.e2e.setup_s = s_between(t0, Clock::now());
  if (log != nullptr) log->add("setup", t0, Clock::now());

  // Road and web queries alternate, so both sample the whole run (the
  // machine's speed drifts over tens of seconds). One untimed query per
  // graph warms its context first.
  rs::QueryContext road_ctx;
  rs::QueryContext web_ctx;
  rs::QueryResponse resp;
  serve_one(road, pass.road, kSources - 1, road_ctx, resp, log, report);
  serve_one(web, pass.web, kSources - 1, web_ctx, resp, log, report);
  // Query times (ms) per window.
  std::vector<std::vector<double>> road_ms(kWindows);
  std::vector<std::vector<double>> web_ms(kWindows);
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(args.seconds / kWindows));
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i == 0 || Clock::now() < start + kWindows * window; ++i) {
    const auto w = static_cast<std::size_t>(
        std::min<Clock::rep>((Clock::now() - start) / window, kWindows - 1));
    road_ms[w].push_back(serve_one(road, pass.road, i % kSources, road_ctx, resp, log, report));
    web_ms[w].push_back(serve_one(web, pass.web, i % kSources, web_ctx, resp, log, report));
    pass.road.ms.push_back(road_ms[w].back());
    pass.web.ms.push_back(web_ms[w].back());
  }
  pass.e2e.p50_ms = median_over_rounds(road_ms, 0.5);
  pass.e2e.tail_ms = median_over_rounds(road_ms, 0.9);
  pass.e2e.aux_p50_ms = median_over_rounds(web_ms, 0.5);
  pass.e2e.aux_tail_ms = median_over_rounds(web_ms, 0.9);
  std::vector<double> road_qps;
  for (const std::vector<double>& ms : road_ms) {
    double road_s = 0.0;
    for (const double m : ms) road_s += m / 1000.0;
    if (road_s > 0.0) road_qps.push_back(static_cast<double>(ms.size()) / road_s);
  }
  pass.e2e.rate_qps = median(road_qps);
  std::printf("  %sroad: %zu queries, p50 %.2f ms  p90 %.2f ms\n", tag.c_str(),
              pass.road.ms.size(), pass.e2e.p50_ms, pass.e2e.tail_ms);
  std::printf("  %sweb:  %zu queries, p50 %.2f ms  p90 %.2f ms\n", tag.c_str(),
              pass.web.ms.size(), pass.e2e.aux_p50_ms, pass.e2e.aux_tail_ms);

  verify(road, pass.road.answers, report.phase(tag + "road"));
  verify(web, pass.web.answers, report.phase(tag + "web"));
  return pass;
}

}  // namespace

void run_sssp_full(const RunArgs& args, Report& report, SpanLog& log) {
  const Clock::time_point g0 = Clock::now();
  Input road{"road n=1M", road_graph(kRoadSide), {}, {}};
  const Clock::time_point g1 = Clock::now();
  Input web{"web n=300k", web_graph(kWebN), {}, {}};
  const Clock::time_point g2 = Clock::now();
  log.add("setup.generate", g0, g1, 0, 0, road.graph.num_vertices());
  log.add("setup.generate", g1, g2, 0, 0, web.graph.num_vertices());
  const RequestStreams road_streams(args.seed, road.graph.num_vertices(), kSources);
  const RequestStreams web_streams(args.seed, web.graph.num_vertices(), kSources);
  road.sources = stratified_sources(args.seed, road.graph.num_vertices());
  web.sources = stratified_sources(args.seed, web.graph.num_vertices());

  EndToEnd untraced;
  {
    const Pass pass = run_pass(args, road, web, nullptr, report);
    untraced = pass.e2e;
  }
  put_end_to_end(report, untraced);
  if (!args.trace) return;

  const Pass traced = run_pass(args, road, web, &log, report);
  put_overhead(report, traced.e2e, untraced);
  report.metric("graph.build_s", s_between(g0, g2), "s");
  report.metric("shortcut.preprocess_s",
                median(log.durations_ms("setup.preprocess", road.graph.num_vertices())) / 1000.0,
                "s");
  report.metric("web.preprocess_s",
                median(log.durations_ms("setup.preprocess", web.graph.num_vertices())) / 1000.0,
                "s");

  const std::vector<rs::Vertex> road_src(road.sources.begin(),
                                         road.sources.begin() + kProbeSources);
  const std::vector<rs::Vertex> web_src(web.sources.begin(), web.sources.begin() + kProbeSources);
  const EngineProbe rp = probe_engine(road.name, *traced.road.engine, road_src, road_streams,
                                      kProbeP2p, log, report, "traced/probe-road");
  put_engine_probe(report, rp);
  const EngineProbe wp = probe_engine(web.name, *traced.web.engine, web_src, web_streams, 0, log,
                                      report, "traced/probe-web");
  report.metric("web.arc_inflation", wp.arc_inflation, "count");
  report.metric("web.substeps", wp.substeps, "count");
  report.metric("web.wasted_relax_frac", wp.wasted_relax_frac, "frac");
  report.metric("web.full_ms_1t", wp.full_ms_1t, "ms");
  report.metric("web.full_ms_4t", wp.full_ms_4t, "ms");
  report.metric("web.self_speedup_4t", wp.full_ms_1t / wp.full_ms_4t, "x");
  report.metric("web.dijkstra_ms", wp.dijkstra_ms, "ms");
  report.metric("web.delta_stepping_ms", wp.delta_stepping_ms, "ms");
  report.metric("web.speedup_vs_dijkstra", wp.dijkstra_ms / wp.full_ms_4t, "x");
  print_measured_state({rp, wp});
}

}  // namespace perfbench
