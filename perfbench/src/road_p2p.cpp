// road-p2p: point-to-point requests into an SsspServer over the
// n = 25.6k road network (paper weights, library-default options, cache
// off). The routing-service shape: the server and its batch regime do most
// of the work.
//
// The engine runs on one worker (perfbench/run.py sets OMP_NUM_THREADS and
// RS_THREADS to 1), so every query takes the sequential engine twin and
// the process runs two busy threads: the caller and the server's batcher.
// With an OpenMP team as wide as a shared 4-vCPU host, every descheduled
// vCPU stalls the barriers of every query, and latencies through the
// server swung 2-3x with the neighbours' load. Intra-query parallelism is
// measured by sssp-full.
//
// One pass: construct engine + server kSetupReps times (setup_s is the
// median); warm up; then run rounds of three parts, each through a fresh
// server. One caller sends requests closed loop through the server
// (p50_ms, tail_ms = p90: what a single user sees). A saturating caller
// keeps kInFlight requests queued, so the batcher always has a wide batch
// (rate_qps: its answers per second). After the server shuts down, a slice
// of the same kind of requests served directly on the engine gives
// aux_p50_ms and aux_tail_ms (p90): the same work with the server
// bypassed. Each metric is the median over rounds of its per-round value,
// so a few seconds of a neighbour's load on a shared host move one round,
// not the result.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>

#include "baseline/dijkstra.hpp"
#include "serve/server.hpp"
#include "shortcut/shortcut.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr rs::Vertex kSide = 160;  // 160 x 160 lattice: n = 25.6k
constexpr std::size_t kPoolSize = 256;
constexpr int kSetupReps = 9;
constexpr double kWarmupS = 1.0;
// One round: a closed-loop caller slice (~400 requests), a saturated
// slice (~300), and a slice of direct serves (~400).
constexpr double kCallerS = 1.5;
constexpr double kSaturatedS = 1.0;
constexpr double kDirectS = 1.5;
constexpr double kRoundS = kCallerS + kSaturatedS + kDirectS;
// Half of ServerOptions::max_batch: the batcher never waits for work, and
// the queue never fills.
constexpr std::size_t kInFlight = 32;

// Stream phases: each phase draws its own requests, identical across the
// untraced and traced passes of one seed.
constexpr std::uint64_t kWarmupPhase = 1;
constexpr std::uint64_t kCallerPhase = 2;
constexpr std::uint64_t kDirectPhase = 3;
constexpr std::uint64_t kSaturatedPhase = 4;

struct Inputs {
  rs::Graph graph;
  RequestStreams streams;
  std::vector<std::vector<rs::Dist>> refs;  // dijkstra row per pool slot
};

struct Pass {
  EndToEnd e2e;
  std::shared_ptr<const rs::SsspEngine> engine;
};

/// One caller, closed loop: submits a request, waits for its answer,
/// submits the next, for `seconds`. Returns each answer's latency (ms).
std::vector<double> serve_closed_loop(rs::serve::SsspServer& server, const Inputs& in,
                                      const CheckFn& check, double seconds,
                                      std::uint64_t phase, PhaseCounts& counts, Report& report,
                                      SpanLog* log) {
  std::vector<double> ms;
  const rs::Vertex k = server.engine_snapshot()->preprocessing().options.k;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (std::uint64_t i = 0; i == 0 || Clock::now() < end; ++i) {
    const PointQuery q = in.streams.uniform(phase, i);
    rs::QueryRequest req;
    req.source = q.source;
    req.targets = {q.target};
    const std::uint64_t id = log != nullptr ? SpanLog::next_id() : 0;
    std::future<rs::QueryResponse> fut;
    ++counts.sent;
    const Clock::time_point t0 = Clock::now();
    if (server.submit(std::move(req), fut) != rs::serve::SubmitStatus::kAccepted) {
      ++counts.rejected;
      continue;
    }
    const Clock::time_point t1 = Clock::now();
    try {
      const rs::QueryResponse resp = fut.get();
      const Clock::time_point t2 = Clock::now();
      ms.push_back(ms_between(t0, t2));
      ++(check(i, q, resp) ? counts.ok : counts.wrong);
      if (resp.stats.max_substeps_in_step > k + 2) {
        report.violation(counts.phase + ": max_substeps_in_step > k+2");
      }
      if (log != nullptr) {
        log->add("submit", t0, t1, id, id);
        record_request(*log, id, resp, t0, t1, t2);
      }
    } catch (const std::exception&) {
      ++counts.errors;
    }
  }
  return ms;
}

/// One caller keeps kInFlight requests submitted for `seconds`, waiting on
/// the oldest before it submits the next, then drains. Returns answers per
/// second from the first submit to the last answer.
double serve_saturated(rs::serve::SsspServer& server, const Inputs& in, const CheckFn& check,
                       double seconds, std::uint64_t phase, PhaseCounts& counts,
                       Report& report) {
  struct Pending {
    std::uint64_t i;
    PointQuery q;
    std::future<rs::QueryResponse> fut;
  };
  std::deque<Pending> pending;
  const rs::Vertex k = server.engine_snapshot()->preprocessing().options.k;
  std::uint64_t answered = 0;
  const auto collect = [&] {
    Pending p = std::move(pending.front());
    pending.pop_front();
    try {
      const rs::QueryResponse resp = p.fut.get();
      ++answered;
      ++(check(p.i, p.q, resp) ? counts.ok : counts.wrong);
      if (resp.stats.max_substeps_in_step > k + 2) {
        report.violation(counts.phase + ": max_substeps_in_step > k+2");
      }
    } catch (const std::exception&) {
      ++counts.errors;
    }
  };
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  for (std::uint64_t i = 0; i == 0 || Clock::now() < end; ++i) {
    const PointQuery q = in.streams.uniform(phase, i);
    rs::QueryRequest req;
    req.source = q.source;
    req.targets = {q.target};
    std::future<rs::QueryResponse> fut;
    ++counts.sent;
    if (server.submit(std::move(req), fut) != rs::serve::SubmitStatus::kAccepted) {
      ++counts.rejected;
    } else {
      pending.push_back({i, q, std::move(fut)});
    }
    if (pending.size() >= kInFlight) collect();
  }
  while (!pending.empty()) collect();
  return static_cast<double>(answered) / s_between(start, Clock::now());
}

Pass run_pass(const RunArgs& args, const Inputs& in, SpanLog* log, Report& report) {
  const std::string tag = log != nullptr ? "traced/" : "";
  Pass pass;
  rs::serve::ServerOptions options;  // library defaults, cache off
  if (log != nullptr) options.trace_sample = 1;

  std::vector<double> setup;
  std::unique_ptr<rs::serve::SsspServer> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    pass.engine.reset();
    const Clock::time_point t0 = Clock::now();
    if (log != nullptr) {
      rs::PreprocessResult pre = rs::preprocess(in.graph, rs::PreprocessOptions{});
      const Clock::time_point t1 = Clock::now();
      log->add("setup.preprocess", t0, t1);
      pass.engine = std::make_shared<const rs::SsspEngine>(in.graph, std::move(pre));
      log->add("setup.engine", t1, Clock::now());
    } else {
      pass.engine = std::make_shared<const rs::SsspEngine>(in.graph, rs::PreprocessOptions{});
    }
    const Clock::time_point t2 = Clock::now();
    server = std::make_unique<rs::serve::SsspServer>(pass.engine, options);
    const Clock::time_point t3 = Clock::now();
    if (log != nullptr) {
      log->add("setup.server", t2, t3);
      log->add("setup", t0, t3);
    }
    setup.push_back(s_between(t0, t3));
  }
  pass.e2e.setup_s = median(setup);

  const CheckFn check = [&](std::uint64_t, const PointQuery& q, const rs::QueryResponse& r) {
    return r.targets.size() == 1 && r.graph_epoch == 1 &&
           r.targets[0].dist == in.refs[q.slot][q.target];
  };

  serve_closed_loop(*server, in, check, kWarmupS, kWarmupPhase, report.phase(tag + "warmup"),
                    report, nullptr);

  server->shutdown();
  server.reset();

  // Rounds of (caller slice, saturated slice, direct slice), so every
  // metric samples the whole run: the machine's speed drifts over tens of
  // seconds. Each round serves through a fresh server and shuts it down
  // before the direct slice, which then has the engine to itself.
  const int rounds = std::max(1, static_cast<int>(args.seconds / kRoundS));
  // Latencies (ms) per round, and saturated answers per second per round.
  std::vector<std::vector<double>> caller_ms;
  std::vector<std::vector<double>> direct_ms;
  std::vector<double> saturated_qps;
  SpanLog caller_log;
  double completed = 0.0;
  double batches = 0.0;
  double accepted = 0.0;
  double shed = 0.0;
  rs::QueryContext ctx;
  rs::QueryResponse resp;
  PhaseCounts& direct = report.phase(tag + "direct");
  const rs::Vertex k = pass.engine->preprocessing().options.k;
  for (int round = 0; round < rounds; ++round) {
    server = std::make_unique<rs::serve::SsspServer>(pass.engine, options);
    const auto base = static_cast<std::uint64_t>(round) << 32;
    caller_ms.push_back(serve_closed_loop(*server, in, check, kCallerS, kCallerPhase | base,
                                          report.phase(tag + "caller"), report,
                                          log != nullptr ? &caller_log : nullptr));

    saturated_qps.push_back(serve_saturated(*server, in, check, kSaturatedS,
                                            kSaturatedPhase | base,
                                            report.phase(tag + "saturated"), report));
    const rs::serve::ServerStats st = server->stats();
    completed += static_cast<double>(st.completed);
    batches += static_cast<double>(st.batches);
    accepted += static_cast<double>(st.accepted);
    shed += static_cast<double>(st.rejected_full);
    server->shutdown();
    server.reset();

    // The same kind of requests, served directly on the engine by one
    // caller.
    direct_ms.emplace_back();
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kDirectS));
    for (std::uint64_t i = 0; i == 0 || Clock::now() < end; ++i) {
      const PointQuery q = in.streams.uniform(kDirectPhase, base | i);
      rs::QueryRequest req;
      req.source = q.source;
      req.targets = {q.target};
      const Clock::time_point t0 = Clock::now();
      pass.engine->serve(req, ctx, resp);
      const Clock::time_point t1 = Clock::now();
      if (log != nullptr) log->add("serve.direct", t0, t1);
      direct_ms.back().push_back(ms_between(t0, t1));
      ++direct.sent;
      ++(check(i, q, resp) ? direct.ok : direct.wrong);
      if (resp.stats.max_substeps_in_step > k + 2) {
        report.violation(tag + "direct: max_substeps_in_step > k+2");
      }
    }
  }
  pass.e2e.p50_ms = median_over_rounds(caller_ms, 0.5);
  pass.e2e.tail_ms = median_over_rounds(caller_ms, 0.9);
  pass.e2e.rate_qps = median(saturated_qps);
  std::printf("  %s%d rounds; caller through the server: p50 %.3f ms  p90 %.3f ms; "
              "saturated with %zu in flight: %.1f/s\n",
              tag.c_str(), rounds, pass.e2e.p50_ms, pass.e2e.tail_ms, kInFlight,
              pass.e2e.rate_qps);
  if (log != nullptr) {
    put_station_metrics(report, caller_log);
    report.metric("server.mean_batch", batches > 0 ? completed / batches : 0.0, "count");
    report.metric("server.shed_frac", accepted + shed > 0 ? shed / (accepted + shed) : 0.0,
                  "frac");
    log->append(caller_log);
  }
  pass.e2e.aux_p50_ms = median_over_rounds(direct_ms, 0.5);
  pass.e2e.aux_tail_ms = median_over_rounds(direct_ms, 0.9);
  return pass;
}

}  // namespace

void run_road_p2p(const RunArgs& args, Report& report, SpanLog& log) {
  const Clock::time_point g0 = Clock::now();
  rs::Graph graph = road_graph(kSide);
  const Clock::time_point g1 = Clock::now();
  log.add("setup.generate", g0, g1);
  Inputs in{std::move(graph), RequestStreams(args.seed, kSide * kSide, kPoolSize), {}};

  // Reference rows for every pool source, before anything is timed.
  in.refs.resize(kPoolSize);
  fork_join(kPoolSize, load_threads(), [&](std::size_t i) {
    in.refs[i] = rs::dijkstra(in.graph, in.streams.pool()[i]);
  });

  const Pass untraced = run_pass(args, in, nullptr, report);
  put_end_to_end(report, untraced.e2e);
  if (!args.trace) return;

  const Pass traced = run_pass(args, in, &log, report);
  put_overhead(report, traced.e2e, untraced.e2e);
  report.metric("graph.build_s", s_between(g0, g1), "s");
  report.metric("shortcut.preprocess_s", median(log.durations_ms("setup.preprocess")) / 1000.0,
                "s");
  const std::vector<rs::Vertex> sources(in.streams.pool().begin(),
                                        in.streams.pool().begin() + 16);
  const EngineProbe probe = probe_engine("road n=25.6k", *traced.engine, sources, in.streams,
                                         500, log, report, "traced/probe");
  put_engine_probe(report, probe);
  print_measured_state({probe});
}

}  // namespace perfbench
