// Layer probes shared by the traced runs of every workload.
#include <algorithm>
#include <cstdio>

#include "baseline/delta_stepping.hpp"
#include "baseline/dijkstra.hpp"
#include "obs/trace.hpp"
#include "parallel/primitives.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

std::vector<double> as_vector(const EndToEnd& e) {
  return {e.setup_s, e.p50_ms, e.tail_ms, e.aux_p50_ms, e.aux_tail_ms, e.rate_qps};
}

/// Median wall time (ms) of full-distance serves from `sources` at the
/// current worker count. Appends each answer's hash_dist to `hashes` and,
/// when given, each run's RunStats to `stats`.
double time_full(const rs::SsspEngine& engine, const std::vector<rs::Vertex>& sources,
                 rs::QueryContext& ctx, SpanLog& log, int workers,
                 std::vector<std::uint64_t>& hashes, std::vector<rs::RunStats>* stats) {
  std::vector<double> ms;
  rs::QueryResponse resp;
  for (const rs::Vertex source : sources) {
    rs::QueryRequest req;
    req.source = source;
    req.want_full_distances = true;
    const Clock::time_point t0 = Clock::now();
    engine.serve(req, ctx, resp);
    const Clock::time_point t1 = Clock::now();
    log.add("serve.full", t0, t1, 0, 0, workers);
    ms.push_back(ms_between(t0, t1));
    hashes.push_back(hash_dist(resp.dist));
    if (stats != nullptr) stats->push_back(resp.stats);
  }
  return median(ms);
}

}  // namespace

void put_end_to_end(Report& report, const EndToEnd& e) {
  const std::vector<double> v = as_vector(e);
  for (std::size_t i = 0; i < v.size(); ++i) {
    report.metric(kEndToEndMetrics[i].first, v[i], kEndToEndMetrics[i].second);
  }
}

void put_overhead(Report& report, const EndToEnd& traced, const EndToEnd& untraced) {
  const std::vector<double> t = as_vector(traced);
  const std::vector<double> u = as_vector(untraced);
  std::printf("\ntracing overhead (traced - untraced):\n");
  for (std::size_t i = 0; i < t.size(); ++i) {
    const auto [name, unit] = kEndToEndMetrics[i];
    std::printf("  %-12s traced %12.4f  untraced %12.4f  diff %+10.4f %s\n", name, t[i], u[i],
                t[i] - u[i], unit);
    report.metric(std::string("overhead.") + name, t[i] - u[i], unit);
  }
}

bool substeps_within_bound(const rs::RunStats& stats, const rs::SsspEngine& engine) {
  return stats.max_substeps_in_step <= engine.preprocessing().options.k + 2;
}

EngineProbe probe_engine(const std::string& graph, const rs::SsspEngine& engine,
                         const std::vector<rs::Vertex>& sources,
                         const RequestStreams& streams, std::size_t p2p_count,
                         SpanLog& log, Report& report, const std::string& phase) {
  EngineProbe p;
  p.graph = graph;
  const rs::Graph& original = engine.original_graph();
  p.arc_inflation = static_cast<double>(engine.preprocessed_graph().num_edges()) /
                    static_cast<double>(original.num_edges());
  PhaseCounts& counts = report.phase(phase);

  rs::QueryContext ctx;
  const int default_workers = rs::num_workers();
  std::vector<rs::RunStats> stats;
  // runs[r][i]: hash of the answer for sources[i] in run r (default
  // workers, then 1, 2 and 4 workers). One untimed query warms the context.
  std::vector<std::vector<std::uint64_t>> runs(4);
  std::vector<std::uint64_t> warm;
  time_full(engine, {sources.front()}, ctx, log, default_workers, warm, nullptr);
  time_full(engine, sources, ctx, log, default_workers, runs[0], &stats);
  for (int workers : {1, 2, 4}) {
    rs::set_num_workers(workers);
    const double ms =
        time_full(engine, sources, ctx, log, workers, runs[workers == 4 ? 3 : workers], nullptr);
    (workers == 1 ? p.full_ms_1t : workers == 2 ? p.full_ms_2t : p.full_ms_4t) = ms;
  }
  rs::set_num_workers(default_workers);

  double steps = 0, substeps = 0, settled = 0, relax = 0, max_sub = 0;
  for (const rs::RunStats& s : stats) {
    steps += static_cast<double>(s.steps);
    substeps += static_cast<double>(s.substeps);
    settled += static_cast<double>(s.settled);
    relax += static_cast<double>(s.relaxations);
    max_sub = std::max(max_sub, static_cast<double>(s.max_substeps_in_step));
    if (!substeps_within_bound(s, engine)) {
      report.violation(graph + ": max_substeps_in_step " +
                       std::to_string(s.max_substeps_in_step) + " > k+2");
    }
  }
  const double n_runs = static_cast<double>(stats.size());
  p.steps = steps / n_runs;
  p.substeps = substeps / n_runs;
  p.settled_per_substep = substeps > 0 ? settled / substeps : 0.0;
  p.max_substeps_in_step = max_sub;
  p.relax_per_settled = settled > 0 ? relax / settled : 0.0;
  // Useful relaxations: one per settled vertex other than the source.
  p.wasted_relax_frac = relax > 0 ? (relax - (settled - n_runs)) / relax : 0.0;

  std::vector<double> dij_ms;
  std::vector<double> delta_ms;
  std::vector<std::vector<rs::Dist>> refs(sources.size());
  std::vector<rs::Dist> delta_out;
  rs::QueryContext dctx;
  rs::dijkstra(original, sources.front(), dctx, refs.front());  // warm-up
  auto check = [&](bool ok) {
    ++counts.sent;
    ++(ok ? counts.ok : counts.wrong);
  };
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    std::vector<rs::Dist>& ref = refs[i];
    rs::dijkstra(original, sources[i], dctx, ref);
    const Clock::time_point t1 = Clock::now();
    log.add("dijkstra", t0, t1);
    dij_ms.push_back(ms_between(t0, t1));
    rs::delta_stepping(original, sources[i], dctx, delta_out);
    const Clock::time_point t2 = Clock::now();
    log.add("delta_stepping", t1, t2);
    delta_ms.push_back(ms_between(t1, t2));
    const std::uint64_t want = hash_dist(ref);
    for (const auto& run : runs) check(run[i] == want);
    check(delta_out == ref);
  }
  p.dijkstra_ms = median(dij_ms);
  p.delta_stepping_ms = median(delta_ms);

  if (p2p_count > 0) {
    std::vector<double> us;
    double touched = 0;
    rs::QueryResponse resp;
    PhaseCounts& p2p = report.phase(phase + "/p2p");
    // Sources cycle over the probe's sources, whose dijkstra rows are at
    // hand; targets come from the workload's uniform target stream.
    for (std::size_t i = 0; i < p2p_count; ++i) {
      const std::size_t slot = i % sources.size();
      rs::QueryRequest req;
      req.source = sources[slot];
      req.targets = {streams.uniform(/*phase=*/90, i).target};
      const Clock::time_point t0 = Clock::now();
      engine.serve(req, ctx, resp);
      const Clock::time_point t1 = Clock::now();
      log.add("serve.p2p", t0, t1);
      us.push_back(ms_between(t0, t1) * 1000.0);
      touched += static_cast<double>(resp.stats.touched);
      ++p2p.sent;
      ++(resp.targets.at(0).dist == refs[slot][req.targets[0]] ? p2p.ok : p2p.wrong);
      if (!substeps_within_bound(resp.stats, engine)) {
        report.violation(graph + ": p2p max_substeps_in_step > k+2");
      }
    }
    p.p2p_us = median(us);
    p.p2p_touched = touched / static_cast<double>(p2p_count);
  }
  return p;
}

void put_engine_probe(Report& report, const EngineProbe& p) {
  report.metric("shortcut.arc_inflation", p.arc_inflation, "count");
  report.metric("engine.steps", p.steps, "count");
  report.metric("engine.substeps", p.substeps, "count");
  report.metric("engine.settled_per_substep", p.settled_per_substep, "count");
  report.metric("engine.max_substeps_in_step", p.max_substeps_in_step, "count");
  report.metric("engine.relax_per_settled", p.relax_per_settled, "count");
  report.metric("engine.wasted_relax_frac", p.wasted_relax_frac, "frac");
  report.metric("engine.full_ms_1t", p.full_ms_1t, "ms");
  report.metric("engine.full_ms_2t", p.full_ms_2t, "ms");
  report.metric("engine.full_ms_4t", p.full_ms_4t, "ms");
  report.metric("engine.self_speedup_4t", p.full_ms_1t / p.full_ms_4t, "x");
  report.metric("baseline.dijkstra_ms", p.dijkstra_ms, "ms");
  report.metric("baseline.delta_stepping_ms", p.delta_stepping_ms, "ms");
  report.metric("engine.speedup_vs_dijkstra", p.dijkstra_ms / p.full_ms_4t, "x");
  report.metric("engine.p2p_us", p.p2p_us, "us");
  report.metric("engine.p2p_touched", p.p2p_touched, "count");
  report.metric("engine.p2p_speedup_vs_dijkstra", p.dijkstra_ms * 1000.0 / p.p2p_us, "x");
}

void print_measured_state(const std::vector<EngineProbe>& probes) {
  std::printf("\nMeasured state (full-distance queries, medians):\n");
  std::printf("| %-22s | %14s | %10s | %10s | %12s | %13s |\n", "graph",
              "Dijkstra 1 thr", "RS 1 thr", "RS 4 thr", "self-speedup",
              "vs Dijkstra");
  std::printf("|%s|%s|%s|%s|%s|%s|\n", "------------------------", "----------------",
              "------------", "------------", "--------------", "---------------");
  for (const EngineProbe& p : probes) {
    std::printf("| %-22s | %11.2f ms | %7.2f ms | %7.2f ms | %11.2fx | %12.2fx |\n",
                p.graph.c_str(), p.dijkstra_ms, p.full_ms_1t, p.full_ms_4t,
                p.full_ms_1t / p.full_ms_4t, p.dijkstra_ms / p.full_ms_4t);
  }
}

void record_request(SpanLog& log, std::uint64_t request_id, const rs::QueryResponse& resp,
                    Clock::time_point due, Clock::time_point wait_start,
                    Clock::time_point done) {
  log.add_ns("request", to_ns(due), to_ns(done), 0, request_id, 0, request_id);
  log.add("wait", wait_start, done, request_id, request_id);
  const rs::obs::TraceBuffer& tb = resp.trace;
  for (std::size_t s = 0; s < tb.size; ++s) {
    const rs::obs::TraceSpan& span = tb.spans[s];
    const std::uint64_t start = tb.origin_ns + span.start_ns;
    log.add_ns(std::string("station.") + rs::obs::to_string(span.id), start,
               start + span.duration_ns, request_id, request_id, span.depth);
  }
}

void put_station_metrics(Report& report, const SpanLog& log) {
  static constexpr const char* kStations[] = {"admission", "queue_wait", "batch_form",
                                              "engine", "respond"};
  double engine_total = 0.0;
  double all_total = 0.0;
  for (const char* station : kStations) {
    const std::vector<double> ms = log.durations_ms(std::string("station.") + station, 0);
    for (const double x : ms) all_total += x;
    if (std::string(station) == "engine") {
      for (const double x : ms) engine_total += x;
    }
    report.metric(std::string("server.") + station + "_us_p50", quantile(ms, 0.5) * 1000.0,
                  "us");
    report.metric(std::string("server.") + station + "_us_p99", quantile(ms, 0.99) * 1000.0,
                  "us");
  }
  report.metric("server.outside_engine_frac",
                all_total > 0 ? 1.0 - engine_total / all_total : 0.0, "frac");
}

}  // namespace perfbench
