// road-churn: a DynamicSsspService over the n = 25.6k road network with
// the result cache on. Reads arrive open loop at kReadRate (one random
// target; sources Zipf(1.0) over a pool of 256), while one updater thread
// applies weight-update batches closed loop with a fixed think time,
// cycling batch sizes 1, 8 and 64 edges. Every flush swaps the epoch and
// purges the cache, so reads pay the miss storm and the flush CPU. The
// only workload that exercises ResultCache, IncrementalPreprocessor and
// swap_engine.
//
// One pass: construct the service kSetupReps times (setup_s is the
// median); warm up with reads only; then run reads and updates together
// for the whole run. p50_ms / tail_ms (p99) are reads, timed from their
// due time, as medians over 5-s windows; aux_p50_ms / aux_tail_ms (p90) are apply_updates calls, timed
// until the new epoch is published; rate_qps is update batches published
// per second. After the window every read is checked against dijkstra on
// the graph of the epoch it is stamped with, rebuilt by replaying the
// update batches on the original graph.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "baseline/dijkstra.hpp"
#include "serve/dynamic.hpp"
#include "shortcut/shortcut.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr rs::Vertex kSide = 160;  // n = 25.6k
constexpr std::size_t kPoolSize = 256;
constexpr double kZipfS = 1.0;
constexpr double kReadRate = 200.0;
constexpr std::chrono::milliseconds kThink{150};
constexpr int kSetupReps = 9;
constexpr double kWarmupS = 1.0;
// Read percentiles are medians over windows of this length (1000 reads, so
// each window's p99 has 10 beyond it; ~20 update cycles per window).
constexpr double kWindowS = 5.0;
constexpr std::size_t kProbeSources = 16;
constexpr std::size_t kProbeP2p = 500;

constexpr std::uint64_t kWarmupPhase = 1;
constexpr std::uint64_t kReadPhase = 2;

struct Read {
  PointQuery q;
  rs::Dist dist = 0;
  std::uint64_t epoch = 0;
  bool from_cache = false;
};

struct Update {
  std::uint64_t batch = 0;  ///< Index into the update stream.
  rs::serve::UpdateReport report;
  double ms = 0.0;
  std::uint64_t published_epoch = 0;   ///< engine_snapshot() epoch after the call.
  std::uint64_t published_hash = 0;    ///< Its original graph's weights.
};

struct Pass {
  EndToEnd e2e;
  std::vector<Read> reads;
  std::vector<Update> updates;
  std::uint64_t base_epoch = 0;
  std::uint64_t update_errors = 0;
  std::shared_ptr<const rs::SsspEngine> final_engine;
};

/// Runs the updater closed loop until `stop` is set.
void update_loop(rs::serve::DynamicSsspService& svc, const rs::Graph& graph,
                 std::uint64_t seed, std::atomic<bool>& stop, std::mutex& mu,
                 std::condition_variable& cv, Pass& pass, SpanLog* log) {
  for (std::uint64_t j = 0; !stop.load(); ++j) {
    const std::vector<rs::WeightUpdate> batch = update_batch(seed, graph, j);
    Update u;
    u.batch = j;
    const Clock::time_point t0 = Clock::now();
    try {
      u.report = svc.apply_updates(batch);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "apply_updates failed: %s\n", e.what());
      ++pass.update_errors;
      continue;
    }
    const Clock::time_point t1 = Clock::now();
    u.ms = ms_between(t0, t1);
    if (log != nullptr) {
      log->add("apply_updates", t0, t1, 0, 0, static_cast<std::int64_t>(batch.size()));
    }
    const std::shared_ptr<const rs::SsspEngine> snap = svc.server().engine_snapshot();
    u.published_epoch = snap->graph_epoch();
    u.published_hash = hash_weights(snap->original_graph());
    pass.updates.push_back(u);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, kThink, [&] { return stop.load(); });
  }
}

/// Checks every read against dijkstra on the graph of its stamped epoch
/// and every published snapshot against the replayed graph.
void verify(const rs::Graph& base, std::uint64_t seed, const RequestStreams& streams,
            Pass& pass, PhaseCounts& reads, PhaseCounts& updates, Report& report) {
  std::map<std::uint64_t, std::vector<std::size_t>> by_epoch;
  for (std::size_t i = 0; i < pass.reads.size(); ++i) {
    by_epoch[pass.reads[i].epoch].push_back(i);
  }
  std::uint64_t wrong = 0;
  auto check_epoch = [&](std::uint64_t epoch, const rs::Graph& g) {
    const auto it = by_epoch.find(epoch);
    if (it == by_epoch.end()) return;
    std::map<std::uint32_t, std::size_t> slot_row;
    for (const std::size_t r : it->second) slot_row.emplace(pass.reads[r].q.slot, 0);
    std::vector<std::uint32_t> slots;
    for (auto& [slot, row] : slot_row) {
      row = slots.size();
      slots.push_back(slot);
    }
    std::vector<std::vector<rs::Dist>> rows(slots.size());
    fork_join(slots.size(), load_threads(), [&](std::size_t i) {
      rows[i] = rs::dijkstra(g, streams.pool()[slots[i]]);
    });
    for (const std::size_t r : it->second) {
      const Read& read = pass.reads[r];
      if (rows[slot_row[read.q.slot]][read.q.target] != read.dist) ++wrong;
    }
    by_epoch.erase(it);
  };

  rs::Graph g = base;
  std::uint64_t epoch = pass.base_epoch;
  check_epoch(epoch, g);
  for (const Update& u : pass.updates) {
    ++updates.sent;
    if (u.report.epoch != epoch) {
      g = rs::apply_weight_updates(g, update_batch(seed, base, u.batch)).graph;
      epoch = u.report.epoch;
      check_epoch(epoch, g);
    }
    const bool ok = u.published_epoch == epoch && u.published_hash == hash_weights(g);
    ++(ok ? updates.ok : updates.wrong);
  }
  // Reads stamped with an epoch no update published.
  for (const auto& [e, idx] : by_epoch) wrong += idx.size();
  reads.ok -= std::min(reads.ok, wrong);
  reads.wrong += wrong;
  if (wrong != 0) report.violation(std::to_string(wrong) + " reads disagree with dijkstra");
}

Pass run_pass(const RunArgs& args, const rs::Graph& graph, const RequestStreams& streams,
              SpanLog* log, Report& report) {
  const std::string tag = log != nullptr ? "traced/" : "";
  Pass pass;
  rs::serve::DynamicSsspService::Options options;  // library defaults...
  options.server.enable_cache = true;              // ...except the cache
  if (log != nullptr) options.server.trace_sample = 1;

  std::vector<double> setup;
  std::unique_ptr<rs::serve::DynamicSsspService> svc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    const Clock::time_point t0 = Clock::now();
    svc = std::make_unique<rs::serve::DynamicSsspService>(graph, options);
    const Clock::time_point t1 = Clock::now();
    if (log != nullptr) log->add("setup.service", t0, t1);
    setup.push_back(s_between(t0, t1));
  }
  pass.e2e.setup_s = median(setup);
  rs::serve::SsspServer& server = svc->server();
  pass.base_epoch = server.engine_snapshot()->graph_epoch();

  const ZipfSampler zipf(kPoolSize, kZipfS);
  // Runs on the collector thread only; pass.reads is read after it joins.
  const CheckFn record = [&](std::uint64_t, const PointQuery& q, const rs::QueryResponse& r) {
    Read read;
    read.q = q;
    read.dist = r.targets.empty() ? rs::kInfDist : r.targets[0].dist;
    read.epoch = r.graph_epoch;
    read.from_cache = r.served_from_cache;
    pass.reads.push_back(read);
    return true;  // checked after the window
  };
  PhaseCounts& read_counts = report.phase(tag + "reads");

  OpenLoopOptions warm;
  warm.rate = kReadRate;
  warm.seconds = kWarmupS;
  offer_point_queries(
      server, warm, [&](std::uint64_t i) { return streams.skewed(zipf, kWarmupPhase, i); },
      record, read_counts, report, nullptr);
  const std::size_t warm_reads = pass.reads.size();

  const rs::serve::ResultCacheStats cache0 = server.cache_stats();
  std::atomic<bool> stop{false};
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  SpanLog updater_log;
  SpanLog read_log;
  std::thread updater(update_loop, std::ref(*svc), std::cref(graph), args.seed,
                      std::ref(stop), std::ref(stop_mu), std::ref(stop_cv), std::ref(pass),
                      log != nullptr ? &updater_log : nullptr);
  OpenLoopOptions window;
  window.rate = kReadRate;
  window.seconds = args.seconds;
  const Clock::time_point w0 = Clock::now();
  const OpenLoopResult r = offer_point_queries(
      server, window, [&](std::uint64_t i) { return streams.skewed(zipf, kReadPhase, i); },
      record, read_counts, report, log != nullptr ? &read_log : nullptr);
  {
    std::lock_guard<std::mutex> lock(stop_mu);
    stop.store(true);
  }
  stop_cv.notify_all();
  updater.join();
  const double window_s = s_between(w0, Clock::now());
  const rs::serve::ResultCacheStats cache1 = server.cache_stats();

  pass.e2e.p50_ms = windowed_quantile(r, kReadRate, kWindowS, 0.5);
  pass.e2e.tail_ms = windowed_quantile(r, kReadRate, kWindowS, 0.99);
  std::vector<double> update_ms;
  for (const Update& u : pass.updates) update_ms.push_back(u.ms);
  pass.e2e.aux_p50_ms = quantile(update_ms, 0.5);
  pass.e2e.aux_tail_ms = quantile(update_ms, 0.9);
  pass.e2e.rate_qps = static_cast<double>(pass.updates.size()) / window_s;
  std::printf("  %sreads: %zu, p50 %.3f ms  p99 %.3f ms; updates: %zu, p50 %.2f ms  p90 %.2f ms\n",
              tag.c_str(), r.latency_ms.size(), pass.e2e.p50_ms, pass.e2e.tail_ms,
              pass.updates.size(), pass.e2e.aux_p50_ms, pass.e2e.aux_tail_ms);

  if (log != nullptr) {
    put_station_metrics(report, read_log);
    const std::uint64_t hits = cache1.hits - cache0.hits;
    const std::uint64_t acquired = hits + (cache1.misses - cache0.misses) +
                                   (cache1.single_flight_waits - cache0.single_flight_waits);
    report.metric("cache.hit_rate",
                  acquired > 0 ? static_cast<double>(hits) / static_cast<double>(acquired) : 0.0,
                  "frac");
    report.metric("cache.single_flight_waits",
                  static_cast<double>(cache1.single_flight_waits - cache0.single_flight_waits),
                  "count");
    // Read latency (from due time) split by where the answer came from.
    std::vector<double> hit_ms;
    std::vector<double> miss_ms;
    const std::vector<double>& lat = r.latency_ms;
    for (std::size_t i = warm_reads; i < pass.reads.size() && i - warm_reads < lat.size(); ++i) {
      (pass.reads[i].from_cache ? hit_ms : miss_ms).push_back(lat[i - warm_reads]);
    }
    report.metric("cache.hit_us_p50", quantile(hit_ms, 0.5) * 1000.0, "us");
    report.metric("cache.miss_us_p50", quantile(miss_ms, 0.5) * 1000.0, "us");
    const rs::serve::ServerStats st = server.stats();
    report.metric("server.mean_batch", st.mean_batch(), "count");
    const double offered = static_cast<double>(st.accepted + st.rejected_full);
    report.metric("server.shed_frac",
                  offered > 0 ? static_cast<double>(st.rejected_full) / offered : 0.0, "frac");
    report.metric("loadgen.lag_ms_p99", quantile(r.lag_ms, 0.99), "ms");
    for (const std::size_t size : {1, 8, 64}) {
      std::vector<double> flush;
      double dirty = 0.0;
      for (const Update& u : pass.updates) {
        if (update_batch_size(u.batch) != size) continue;
        flush.push_back(u.report.incremental_ms);
        dirty += static_cast<double>(u.report.dirty_balls) /
                 static_cast<double>(std::max<std::size_t>(u.report.total_balls, 1));
      }
      report.metric("dyn.flush_ms.b" + std::to_string(size), quantile(flush, 0.5), "ms");
      if (size == 64) {
        report.metric("dyn.dirty_ball_frac.b64",
                      flush.empty() ? 0.0 : dirty / static_cast<double>(flush.size()), "frac");
      }
    }
    log->append(updater_log);
    log->append(read_log);
  }
  pass.final_engine = server.engine_snapshot();
  svc.reset();

  if (pass.update_errors != 0) {
    PhaseCounts& u = report.phase(tag + "updates");
    u.sent += pass.update_errors;
    u.errors += pass.update_errors;
  }
  return pass;
}

}  // namespace

void run_road_churn(const RunArgs& args, Report& report, SpanLog& log) {
  const Clock::time_point g0 = Clock::now();
  const rs::Graph graph = road_graph(kSide);
  const Clock::time_point g1 = Clock::now();
  log.add("setup.generate", g0, g1);
  const RequestStreams streams(args.seed, graph.num_vertices(), kPoolSize);

  EndToEnd untraced;
  {
    Pass pass = run_pass(args, graph, streams, nullptr, report);
    verify(graph, args.seed, streams, pass, report.phase("reads"), report.phase("updates"),
           report);
    untraced = pass.e2e;
  }
  put_end_to_end(report, untraced);
  if (!args.trace) return;

  Pass traced = run_pass(args, graph, streams, &log, report);
  verify(graph, args.seed, streams, traced, report.phase("traced/reads"),
         report.phase("traced/updates"), report);
  put_overhead(report, traced.e2e, untraced);
  report.metric("graph.build_s", s_between(g0, g1), "s");

  // Cold rebuild of the final graph: the yardstick for incremental flush.
  const rs::Graph& final_graph = traced.final_engine->original_graph();
  const Clock::time_point c0 = Clock::now();
  const rs::PreprocessResult cold = rs::preprocess(final_graph, rs::PreprocessOptions{});
  const Clock::time_point c1 = Clock::now();
  log.add("preprocess.cold", c0, c1);
  const double cold_ms = ms_between(c0, c1);
  report.metric("dyn.cold_rebuild_ms", cold_ms, "ms");
  report.metric("shortcut.preprocess_s", cold_ms / 1000.0, "s");
  for (const char* b : {"b1", "b8", "b64"}) {
    const double flush = report.value(std::string("dyn.flush_ms.") + b);
    report.metric(std::string("dyn.rebuild_speedup.") + b, flush > 0 ? cold_ms / flush : 0.0,
                  "x");
  }
  const std::vector<rs::Vertex> sources(streams.pool().begin(),
                                        streams.pool().begin() + kProbeSources);
  const EngineProbe probe = probe_engine("road n=25.6k (churned)", *traced.final_engine,
                                         sources, streams, kProbeP2p, log, report,
                                         "traced/probe");
  put_engine_probe(report, probe);
  print_measured_state({probe});
}

}  // namespace perfbench
