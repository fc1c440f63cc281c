// Load generator for the serving daemon (serve/server.hpp): drives an
// SsspServer with targeted point-to-point requests and reports sustained
// throughput plus the end-to-end latency distribution (p50/p99/p999) into
// BENCH_sssp_serve.json — the serving-side perf trajectory CI gates.
//
// Two drive modes (RS_MODE=closed|open|both, default closed):
//
//   closed — RS_CLIENTS threads in a closed loop: each submits a request,
//            blocks on its future, submits the next. Measures the
//            saturated-throughput regime (qps) and the latency under it;
//            this is the mode the CI bench-smoke job runs and gates.
//            Closed mode additionally measures the caching layer: a
//            second closed loop against a cache-enabled server under a
//            Zipf(s=1.0) source schedule (`hot_qps`, `hit_rate` — warm
//            rows answered at submit time), and a top-k closed loop
//            (`topk_qps`, every reply checked against the sorted
//            reference prefix).
//   open   — one dispatcher submits at a fixed offered rate (RS_RATE qps;
//            default 70% of a quick closed-loop calibration) without
//            waiting for completions. Measures the latency a NON-saturated
//            service shows and how much load sheds (queue-full rejections)
//            when the offered rate exceeds capacity.
//
// Each mode gets a fresh SsspServer so its latency histogram is not
// polluted by the other mode; the engine underneath is shared, and each
// server's workers (num_workers() of them, one request at a time each)
// build their contexts on their first requests.
// Every response is verified against full-SSSP reference distances, so
// the driver doubles as an end-to-end concurrency smoke test.
//
// Knobs: RS_SCALE / RS_THREADS as usual; RS_REQUESTS (total requests per
// mode, default 4096), RS_CLIENTS (closed-loop client threads, default
// 8), RS_TARGETS (targets per request, default 1), RS_RHO (preprocess
// rho, default PreprocessOptions{}'s), RS_QUEUE (queue capacity, 1024),
// RS_RATE (open-loop offered qps, 0 = auto), RS_TOPK (k for the top-k loop,
// default 8), RS_TRACE (trace every Nth request through the server's span
// pipeline, 0 = off — for measuring tracing overhead under load).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "exp_common.hpp"
#include "obs/trace.hpp"
#include "parallel/primitives.hpp"
#include "parallel/rng.hpp"
#include "parallel/timer.hpp"
#include "serve/server.hpp"

namespace {

using namespace rs;
using namespace rs::serve;

/// Request pool: one targeted request per pooled source, targets drawn
/// deterministically. Request i is always answered against reference i.
std::vector<QueryRequest> make_requests(const Graph& g,
                                        const std::vector<Vertex>& sources,
                                        int targets_per) {
  const SplitRng rng(4242);
  std::vector<QueryRequest> requests;
  requests.reserve(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    QueryRequest req;
    req.source = sources[i];
    req.targets.reserve(static_cast<std::size_t>(targets_per));
    for (int t = 0; t < targets_per; ++t) {
      req.targets.push_back(static_cast<Vertex>(rng.bounded(
          i, static_cast<std::uint64_t>(t), g.num_vertices())));
    }
    requests.push_back(std::move(req));
  }
  return requests;
}

bool verify(const QueryResponse& resp, const QueryResponse& ref) {
  for (const TargetResult& tr : resp.targets) {
    if (tr.dist != ref.dist[tr.target]) {
      std::fprintf(stderr, "MISMATCH source %u target %u: %llu != %llu\n",
                   resp.source, tr.target,
                   static_cast<unsigned long long>(tr.dist),
                   static_cast<unsigned long long>(ref.dist[tr.target]));
      return false;
    }
  }
  return true;
}

/// Response checker, indexed by the request-pool slot it answered.
using VerifySlot = std::function<bool(const QueryResponse&, std::size_t)>;

/// Zipf(s=1.0) slot schedule over `pool` request slots: slot j is drawn
/// with probability proportional to 1/(j+1) — the hot-source skew a
/// result cache exists for. Deterministic in `seed`.
std::vector<std::size_t> zipf_schedule(std::uint64_t total, std::size_t pool,
                                       std::uint64_t seed) {
  std::vector<double> cdf(pool);
  double acc = 0.0;
  for (std::size_t j = 0; j < pool; ++j) {
    acc += 1.0 / static_cast<double>(j + 1);
    cdf[j] = acc;
  }
  const SplitRng rng(seed);
  std::vector<std::size_t> schedule(total);
  for (std::uint64_t i = 0; i < total; ++i) {
    const double u = rng.uniform(9, i) * acc;
    schedule[i] = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (schedule[i] >= pool) schedule[i] = pool - 1;
  }
  return schedule;
}

struct ClosedResult {
  double qps = 0.0;
  double hit_rate = 0.0;  // timed-window cache hit rate (0 with cache off)
  bool ok = true;
};

/// Closed loop: `clients` threads race through `total` requests, each
/// blocking on its own future before submitting the next. Request i maps
/// to pool slot schedule[i] (round-robin when schedule is null). `warm`
/// requests are served synchronously before the timer starts — outside
/// the measured window and the reported hit rate.
ClosedResult run_closed(const SsspEngine& engine, ServerOptions opts,
                        const std::vector<QueryRequest>& requests,
                        const VerifySlot& check, std::uint64_t total,
                        int clients, obs::Histogram::Snapshot* latency,
                        const std::vector<std::size_t>* schedule = nullptr,
                        const std::vector<QueryRequest>* warm = nullptr) {
  SsspServer server(engine, opts);
  if (warm != nullptr) {
    for (const QueryRequest& req : *warm) (void)server.serve_sync(req);
  }
  const ResultCacheStats warm_cache = server.cache_stats();
  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> ok{true};
  Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      std::uint64_t i;
      while ((i = next.fetch_add(1, std::memory_order_relaxed)) < total) {
        const std::size_t slot = schedule != nullptr
                                     ? (*schedule)[i]
                                     : i % requests.size();
        const QueryResponse resp = server.serve_sync(requests[slot]);
        if (!check(resp, slot)) ok.store(false);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = timer.seconds();
  server.drain();
  if (latency != nullptr) *latency = server.latency().snapshot();
  ClosedResult out;
  out.qps = static_cast<double>(total) / seconds;
  out.ok = ok.load();
  const ResultCacheStats cache = server.cache_stats();
  const std::uint64_t hits = cache.hits - warm_cache.hits;
  const std::uint64_t lookups =
      hits + (cache.misses - warm_cache.misses) +
      (cache.single_flight_waits - warm_cache.single_flight_waits);
  if (lookups != 0) {
    out.hit_rate =
        static_cast<double>(hits) / static_cast<double>(lookups);
  }
  server.shutdown();
  return out;
}

struct OpenResult {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  std::uint64_t rejected = 0;
  bool ok = true;
};

/// Open loop: submit `total` requests at `rate` qps without waiting;
/// queue-full rejections are counted as shed load, not failures.
OpenResult run_open(const SsspEngine& engine, ServerOptions opts,
                    const std::vector<QueryRequest>& requests,
                    const std::vector<QueryResponse>& ref, std::uint64_t total,
                    double rate, obs::Histogram::Snapshot* latency) {
  SsspServer server(engine, opts);
  OpenResult out;
  out.offered_qps = rate;
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(std::chrono::duration<double>(
      1.0 / (rate > 0.0 ? rate : 1.0)));

  std::vector<std::future<QueryResponse>> futures;
  std::vector<std::size_t> slots;
  futures.reserve(total);
  slots.reserve(total);
  Timer timer;
  auto tick = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < total; ++i) {
    const std::size_t slot = i % requests.size();
    std::future<QueryResponse> fut;
    const SubmitStatus status = server.submit(requests[slot], fut);
    if (status == SubmitStatus::kAccepted) {
      futures.push_back(std::move(fut));
      slots.push_back(slot);
    } else if (status == SubmitStatus::kQueueFull) {
      ++out.rejected;  // backpressure did its job; shed and move on
    } else {
      out.ok = false;
    }
    tick += interval;
    std::this_thread::sleep_until(tick);
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const QueryResponse resp = futures[i].get();
    if (!verify(resp, ref[slots[i]])) out.ok = false;
  }
  const double seconds = timer.seconds();
  out.achieved_qps = static_cast<double>(futures.size()) / seconds;
  if (latency != nullptr) *latency = server.latency().snapshot();
  server.shutdown();
  return out;
}

}  // namespace

int main() {
  using namespace rs::exp;
  const Scale s = scale_from_env();
  // The same count at every scale: enough that the tail percentiles CI
  // gates at ci scale lie past the servers' start-up.
  const auto total =
      static_cast<std::uint64_t>(env_int64("RS_REQUESTS", 4096));
  const int clients = static_cast<int>(env_int64("RS_CLIENTS", 8));
  const int targets_per = static_cast<int>(env_int64("RS_TARGETS", 1));
  const auto rho =
      static_cast<Vertex>(env_int64("RS_RHO", PreprocessOptions{}.rho));
  const std::string mode = env_string("RS_MODE", "closed");

  ServerOptions opts;
  opts.queue_capacity =
      static_cast<std::size_t>(env_int64("RS_QUEUE", 1024));
  opts.trace_sample = rs::obs::trace_sample_from_env();
  if (opts.trace_sample != 0) {
    std::printf("tracing: every %u%s request\n\n", opts.trace_sample,
                opts.trace_sample == 1 ? "st" : "th");
  }

  auto graphs = shortcut_suite(s);
  // One graph keeps the runtime bounded; the road network is the serving
  // workload the paper's preprocessing shines on.
  const std::string graph_name = graphs.front().name;
  const Graph g = paper_weighted(graphs.front().graph);
  std::printf("loadgen — sssp_serve daemon (scale=%s graph=%s n=%u m=%zu)\n",
              s.name.c_str(), graph_name.c_str(), g.num_vertices(),
              static_cast<std::size_t>(g.num_edges()));
  std::printf(
      "requests=%llu clients=%d targets=%d queue=%zu workers=%d mode=%s\n\n",
      static_cast<unsigned long long>(total), clients, targets_per,
      opts.queue_capacity, num_workers(), mode.c_str());

  PreprocessOptions popts;
  popts.rho = rho;
  popts.k = 2;
  const SsspEngine engine(g, popts);

  const int pool = 64;
  const std::vector<Vertex> sources = sample_sources(g, pool, /*seed=*/777);
  const std::vector<QueryRequest> requests =
      make_requests(g, sources, targets_per);
  std::vector<QueryResponse> ref;
  ref.reserve(sources.size());
  for (const Vertex src : sources) {
    QueryRequest full;
    full.source = src;
    full.want_full_distances = true;
    ref.push_back(engine.serve(full));
  }

  BenchJson json("sssp_serve", s);
  const BenchJson::Labels labels{
      {"graph", graph_name},
      {"clients", std::to_string(clients)},
      {"targets", std::to_string(targets_per)}};
  bool ok = true;

  const VerifySlot check_targets = [&](const QueryResponse& resp,
                                       std::size_t slot) {
    return verify(resp, ref[slot]);
  };

  if (mode == "closed" || mode == "both") {
    obs::Histogram::Snapshot lat;
    const ClosedResult r = run_closed(engine, opts, requests, check_targets,
                                      total, clients, &lat);
    ok = ok && r.ok;
    const auto p50 = lat.value_at_quantile(0.50);
    const auto p99 = lat.value_at_quantile(0.99);
    const auto p999 = lat.value_at_quantile(0.999);
    std::printf("closed-loop: %10.1f qps   p50=%llu us  p99=%llu us  "
                "p999=%llu us\n",
                r.qps, static_cast<unsigned long long>(p50),
                static_cast<unsigned long long>(p99),
                static_cast<unsigned long long>(p999));
    json.add("closed_qps", r.qps, "queries/sec", labels);
    json.add("p50_us", static_cast<double>(p50), "us", labels);
    json.add("p99_us", static_cast<double>(p99), "us", labels);
    json.add("p999_us", static_cast<double>(p999), "us", labels);

    // Hot-source regime: cache-enabled server, Zipf(s=1.0) source skew,
    // one warm pass over the pool before the timer. Steady state is all
    // submit-time cache hits, so hot_qps gates the cache fast path and
    // hit_rate its effectiveness (both higher-is-better).
    ServerOptions hot_opts = opts;
    hot_opts.enable_cache = true;
    const std::vector<std::size_t> schedule =
        zipf_schedule(total, requests.size(), /*seed=*/90210);
    const ClosedResult hot =
        run_closed(engine, hot_opts, requests, check_targets, total, clients,
                   nullptr, &schedule, &requests);
    ok = ok && hot.ok;
    std::printf("hot closed-loop (zipf s=1.0, cache on): %10.1f qps   "
                "hit_rate=%.3f (%.1fx uncached)\n",
                hot.qps, hot.hit_rate, hot.qps / r.qps);
    json.add("hot_qps", hot.qps, "queries/sec", labels);
    json.add("hit_rate", hot.hit_rate, "ratio", labels);

    // Top-k closed loop: k-nearest requests over the same source pool,
    // every reply checked against the sorted reference prefix.
    const auto k = static_cast<std::size_t>(env_int64("RS_TOPK", 8));
    std::vector<QueryRequest> topk_requests;
    std::vector<std::vector<std::pair<Dist, Vertex>>> topk_ref;
    topk_requests.reserve(sources.size());
    topk_ref.reserve(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      QueryRequest req;
      req.source = sources[i];
      req.kind = RequestKind::kTopK;
      req.k = k;
      topk_requests.push_back(std::move(req));
      std::vector<std::pair<Dist, Vertex>> prefix;
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        if (ref[i].dist[v] < kInfDist) prefix.push_back({ref[i].dist[v], v});
      }
      const std::size_t m = std::min(k, prefix.size());
      std::partial_sort(prefix.begin(),
                        prefix.begin() + static_cast<std::ptrdiff_t>(m),
                        prefix.end());
      prefix.resize(m);
      topk_ref.push_back(std::move(prefix));
    }
    const VerifySlot check_topk = [&](const QueryResponse& resp,
                                      std::size_t slot) {
      const auto& want = topk_ref[slot];
      if (resp.targets.size() != want.size()) return false;
      for (std::size_t i = 0; i < want.size(); ++i) {
        if (resp.targets[i].target != want[i].second ||
            resp.targets[i].dist != want[i].first) {
          return false;
        }
      }
      return true;
    };
    const ClosedResult tk = run_closed(engine, opts, topk_requests,
                                       check_topk, total, clients, nullptr);
    ok = ok && tk.ok;
    std::printf("topk closed-loop (k=%zu): %10.1f qps\n", k, tk.qps);
    json.add("topk_qps", tk.qps, "queries/sec", labels);
  }

  if (mode == "open" || mode == "both") {
    double rate = static_cast<double>(env_int64("RS_RATE", 0));
    if (rate <= 0.0) {
      // Calibrate: a short closed-loop burst, then offer 70% of it — the
      // non-saturated regime open-loop latency is meaningful in.
      const ClosedResult cal =
          run_closed(engine, opts, requests, check_targets,
                     std::max<std::uint64_t>(total / 4, 32), clients,
                     nullptr);
      ok = ok && cal.ok;
      rate = 0.7 * cal.qps;
      if (rate < 1.0) rate = 1.0;
    }
    obs::Histogram::Snapshot lat;
    const OpenResult r =
        run_open(engine, opts, requests, ref, total, rate, &lat);
    ok = ok && r.ok;
    const auto p50 = lat.value_at_quantile(0.50);
    const auto p99 = lat.value_at_quantile(0.99);
    std::printf("open-loop:   offered %.1f qps, achieved %.1f qps, "
                "rejected %llu   p50=%llu us  p99=%llu us\n",
                r.offered_qps, r.achieved_qps,
                static_cast<unsigned long long>(r.rejected),
                static_cast<unsigned long long>(p50),
                static_cast<unsigned long long>(p99));
    json.add("open_offered_qps", r.offered_qps, "queries/sec", labels);
    json.add("open_achieved_qps", r.achieved_qps, "queries/sec", labels);
    json.add("open_p50_us", static_cast<double>(p50), "us", labels);
    json.add("open_p99_us", static_cast<double>(p99), "us", labels);
    json.add("open_rejected", static_cast<double>(r.rejected), "requests",
             labels);
  }

  const std::string path = json.write();
  if (!path.empty()) std::printf("\nwrote %s\n", path.c_str());
  if (!ok) {
    std::fprintf(stderr, "FAILED: serving results diverged or rejected\n");
    return 1;
  }
  return 0;
}
