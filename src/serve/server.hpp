/// \file
/// SsspServer: the long-running serving daemon over an SsspEngine.
///
/// \code
///   auto engine = std::make_shared<SsspEngine>(graph, opts);
///   SsspServer server(engine, {.queue_capacity = 1024});
///   std::future<QueryResponse> fut;
///   if (server.submit(std::move(req), fut) == SubmitStatus::kAccepted) {
///     QueryResponse resp = fut.get();
///   }
///   server.shutdown();  // stop accepting, drain in-flight, join workers
/// \endcode
///
/// Architecture (one request's life):
///
/// \verbatim
///   client threads ──submit()──► BoundedQueue ──pop──► worker threads
///        │ validate + admission      (backpressure)      │ one request
///        │ control at the edge                           │ at a time
///        ▼                                               ▼
///   SubmitStatus / future ◄──promise◄── engine.serve(request, ctx)
/// \endverbatim
///
/// The server is its workers: it starts num_workers() worker threads
/// when it is built. Each worker pops the oldest queued request, serves
/// it with SsspEngine::serve on its own QueryContext and its own thread,
/// and pops the next. The context stays warm for the worker's whole
/// life, across every engine swap. A worker runs its loop inside a
/// one-thread OpenMP region, where num_workers() is 1, so nothing the
/// engine runs for a request opens a team: requests run side by side,
/// one per worker, and none waits for another to finish.
///
/// Result cache (ServerOptions::enable_cache): every request takes one
/// of two paths. A hit is answered at submit time from a cached row; any
/// other request runs on a worker. The first miss on a (source, epoch)
/// runs there as a full-distance request and publishes the row; a miss
/// that finds that fill in flight runs as it came, on another worker.
/// Nothing waits on another request's row.
///
/// Admission control: requests are validated at submit time (kInvalid) so
/// a bad request is rejected before it is queued, and the bounded queue
/// sheds load (kQueueFull) instead of queueing without limit. Both
/// rejections are cheap constant-time paths.
///
/// Live graph swaps: the server holds its engine in a SnapshotSwap
/// (graph/graph_swap.hpp). Every submit and every engine run pins the
/// snapshot ONCE and serves entirely from it, so swap_engine() can
/// publish a successor (built with SsspEngine::next_epoch) mid-traffic:
/// in-flight work finishes on the old epoch, new work starts on the new
/// one, and no request ever observes a torn state. The old engine is
/// destroyed when its last pin drops.
///
/// Lifecycle: counter-based in-flight tracking (accepted vs completed)
/// drives drain() — block until everything admitted so far has completed
/// — and shutdown() = stop admitting, close the queue (buffered requests
/// still drain), join the workers. A request's promise is always
/// completed: with a response, or with the exception its own run threw.
///
/// Every completion records end-to-end latency (submit to promise
/// fulfillment, queueing included — the number a client actually
/// experiences) into an allocation-free obs::Histogram.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/query_context.hpp"
#include "core/request.hpp"
#include "graph/graph_swap.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/request_queue.hpp"
#include "serve/result_cache.hpp"

namespace rs::serve {

/// Outcome of SsspServer::submit. Only kAccepted produces a future.
enum class SubmitStatus : std::uint8_t {
  kAccepted,      ///< Admitted; the future will be fulfilled.
  kQueueFull,     ///< Backpressure: queue at capacity, try again later.
  kShuttingDown,  ///< Server no longer admits requests.
  kInvalid,       ///< Request failed SsspEngine::validate (bad source,
                  ///< target, or top-k fields).
};

/// Stable lowercase token for a SubmitStatus ("accepted", "queue_full",
/// "shutting_down", "invalid") — the wire/protocol spelling.
const char* to_string(SubmitStatus status);

/// Construction-time configuration of an SsspServer.
struct ServerOptions {
  /// Admission buffer depth; pushes beyond it are rejected kQueueFull.
  std::size_t queue_capacity = 1024;

  /// Start with the workers parked (see pause()). Requests queue but are
  /// not served until resume() — how tests set up deterministic
  /// queue-full and cache-fill scenarios.
  bool start_paused = false;

  /// Hot-source result cache (serve/result_cache.hpp). Cache-eligible
  /// requests (kTargets, no paths) that hit a cached full-distance row
  /// are answered synchronously AT SUBMIT TIME — no queue, no worker,
  /// no engine run: O(|targets|) per hit. The first miss on a (source,
  /// graph_epoch) fills it: it runs as a full-distance request and its
  /// row is published. A miss while that fill is in flight is busy and
  /// runs as it came.
  bool enable_cache = false;
  /// Sharding/capacity knobs for the cache (used iff enable_cache).
  ResultCacheOptions cache;

  /// Trace every Nth admitted request (0 = off): sampled requests get a
  /// per-request span breakdown in QueryResponse::trace (obs/trace.hpp)
  /// and the engine times its phases for them. The daemon wires
  /// `--trace-sample` / the RS_TRACE env into this.
  std::uint32_t trace_sample = 0;

  /// Slow-query log threshold in microseconds (0 = off): any request
  /// whose end-to-end latency reaches it dumps a one-line station
  /// breakdown to stderr and bumps rs_slow_queries_total. Works for
  /// untraced requests too (station marks are kept whenever either knob
  /// is on); traced requests add their engine-phase detail.
  std::uint64_t slow_query_us = 0;
};

/// Monotonic counters, readable at any time without stopping the server.
/// format_stats_line() renders every field; the daemon's `stats` verb and
/// the README metric table are generated from that single source.
struct ServerStats {
  std::uint64_t accepted = 0;           ///< Admitted into the queue.
  std::uint64_t rejected_full = 0;      ///< kQueueFull rejections (shed).
  std::uint64_t rejected_invalid = 0;   ///< kInvalid rejections.
  std::uint64_t rejected_shutdown = 0;  ///< kShuttingDown rejections.
  std::uint64_t completed = 0;          ///< Promises fulfilled.
  std::uint64_t batches = 0;            ///< Engine runs (one per request
                                        ///< a worker served).
  std::uint64_t cache_hits = 0;         ///< Answered from a cached row.
  std::uint64_t cache_misses = 0;       ///< Fills + busy misses
                                        ///< (0 with the cache off).
  /// graph_epoch() of the currently-published engine snapshot.
  std::uint64_t epoch = 0;
  /// swap_engine() calls that have published a successor engine.
  std::uint64_t swaps = 0;

  /// Requests traced by the sampling knob (trace_sample).
  std::uint64_t traced = 0;
  /// Requests at or over the slow-query threshold (slow_query_us).
  std::uint64_t slow_queries = 0;

  /// Requests admitted but not yet completed (queued or being served).
  std::uint64_t in_flight() const { return accepted - completed; }
  /// Completions per engine run: 1 with the cache off, above 1 as
  /// submit-time hits answer requests without a run.
  double mean_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(completed) /
                              static_cast<double>(batches);
  }
};

/// Which rendering SsspServer::export_metrics produces.
enum class MetricsFormat : std::uint8_t {
  kPrometheus,  ///< Text exposition format (scrapable; `metrics` verb).
  kJson,        ///< One-line JSON array (`metrics json` verb).
};

/// The serving daemon (see file comment for the architecture).
class SsspServer {
 public:
  /// Non-owning form: the engine must outlive the server and must not be
  /// mutated while serving. The num_workers() worker threads start
  /// immediately (parked if opts.start_paused). swap_engine() works from
  /// here too — it simply publishes an owning successor over the borrowed
  /// original.
  explicit SsspServer(const SsspEngine& engine, ServerOptions opts = {});

  /// Owning form — the one dynamic deployments use: the server shares
  /// ownership of the engine snapshot and swap_engine() can retire it
  /// safely once the last in-flight pin drops.
  explicit SsspServer(std::shared_ptr<const SsspEngine> engine,
                      ServerOptions opts = {});

  /// shutdown() if the caller has not already.
  ~SsspServer();

  SsspServer(const SsspServer&) = delete;
  SsspServer& operator=(const SsspServer&) = delete;

  /// Admission: validates, then enqueues. On kAccepted, `result` is a
  /// future fulfilled when a worker has served the request (with the
  /// response, or the exception its run threw). On any rejection `result`
  /// is untouched and nothing was enqueued.
  SubmitStatus submit(QueryRequest req, std::future<QueryResponse>& result);

  /// Convenience blocking call: submit + wait. Throws std::runtime_error
  /// on admission rejection (message names the SubmitStatus).
  QueryResponse serve_sync(QueryRequest req);

  /// Parks each worker after its current request: admitted requests keep
  /// queueing but no new one is started until resume(). The
  /// deterministic-test hook (fill the queue, then serve) and an
  /// operational pressure valve (e.g. while swapping the engine).
  void pause();
  /// Unparks the workers; the inverse of pause().
  void resume();

  /// Blocks until in_flight() reaches zero — every request admitted
  /// before (or during) the drain has completed. Does not stop admission;
  /// call pause() or shutdown() first for a quiescent point. Self-
  /// deadlocks if the server is paused with requests buffered.
  void drain();

  /// Stops admission, lets the queue drain (buffered requests are still
  /// served), joins the workers. Idempotent; safe to call concurrently.
  void shutdown();

  /// Snapshot of every monotonic counter (plus the live epoch). Reads the
  /// metrics registry — the same cells `stats` verb, shutdown print, and
  /// export_metrics() render, so the three can never disagree.
  ServerStats stats() const;

  /// The server's metrics registry: every counter above lives here, and
  /// co-located subsystems (DynamicSsspService) register their own series
  /// alongside so one scrape covers the whole deployment.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Renders the full registry — counters, gauges, the latency summary —
  /// as Prometheus text exposition or JSON. Live gauges (epoch, in-flight)
  /// are refreshed first, so a scrape is always current.
  std::string export_metrics(
      MetricsFormat format = MetricsFormat::kPrometheus) const;

  /// End-to-end request latency (microseconds, submit to completion).
  const obs::Histogram& latency() const { return latency_; }

  /// The options the server was constructed with.
  const ServerOptions& options() const { return opts_; }

  /// Cache counters (all-zero when the cache is disabled).
  ResultCacheStats cache_stats() const;

  /// Pins the currently-published engine snapshot (never null). The
  /// engine stays alive for as long as the caller holds the pointer, no
  /// matter how many swaps race past — the way to stamp answers or read
  /// graph_epoch() consistently from outside.
  std::shared_ptr<const SsspEngine> engine_snapshot() const;

  /// Publishes `next` as the engine for all FUTURE work, mid-traffic and
  /// without a quiescent point: in-flight submits and engine runs
  /// finish on the snapshot they pinned; the old engine is destroyed when
  /// its last pin drops. Purges cache rows of epochs older than `next`'s
  /// (a stale key can never match again — free its memory eagerly).
  /// Throws std::invalid_argument, and keeps the published engine, unless
  /// next->graph_epoch() exceeds the published one: build `next` with
  /// SsspEngine::next_epoch.
  void swap_engine(std::shared_ptr<const SsspEngine> next);

 private:
  struct Pending {
    QueryRequest request;
    std::promise<QueryResponse> promise;
    std::chrono::steady_clock::time_point accepted_at;
    /// The request fills `key` in the result cache: it runs as a
    /// full-distance request and owes the cache a fulfill or abandon.
    bool fill = false;
    CacheKey key;

    /// Sampled for a span breakdown (ServerOptions::trace_sample).
    bool traced = false;
    // Station marks, stamped only while tracing or the slow-query log is
    // on (marks_enabled_): the depth-0 spans tile [accepted_at, complete]
    // exactly, so their durations sum to the end-to-end latency. A
    // default (epoch-zero) t_enqueued means the request never entered the
    // queue — the synchronous cache-hit path.
    std::chrono::steady_clock::time_point t_enqueued{};
    std::chrono::steady_clock::time_point t_popped{};
    std::chrono::steady_clock::time_point t_exec{};
    std::chrono::steady_clock::time_point t_engine_done{};
  };

  void worker_loop();
  /// Serves one request on the worker's `ctx` and fulfills its promise.
  /// Never throws.
  void execute(Pending& p, QueryContext& ctx);
  /// Blocks while paused. Returns false when the server is stopping.
  bool wait_not_paused();

  /// Completes one request (latency record + promise + drain counters).
  void complete(Pending& p, QueryResponse&& resp);
  /// Counts one fulfilled promise and wakes drain().
  void count_completion();

  /// Builds the traced span breakdown (and serves the slow-query log)
  /// for one completing request. `now` is the completion instant.
  void assemble_trace(Pending& p, QueryResponse& resp,
                      std::chrono::steady_clock::time_point now,
                      std::uint64_t e2e_us);

  // The published engine snapshot: submit and execute each pin once per
  // request, and swap_engine publishes a successor.
  // Never null after construction.
  SnapshotSwap<SsspEngine> engine_;
  // Serializes swap_engine's epoch check with its publish.
  std::mutex swap_mutex_;
  const ServerOptions opts_;

  // THE counter source of truth: every ServerStats field is a registry
  // series, and stats()/format_stats_line/export_metrics all read these
  // same cells. Registration happens once, in the constructor; the
  // references below are stable handles whose updates are single relaxed
  // fetch_adds (no lock, no lookup, no allocation on the hot path).
  obs::MetricsRegistry metrics_;
  obs::Counter& accepted_;
  obs::Counter& completed_;
  obs::Counter& rejected_full_;
  obs::Counter& rejected_invalid_;
  obs::Counter& rejected_shutdown_;
  obs::Counter& batches_;
  obs::Counter& cache_hits_;
  obs::Counter& cache_misses_;
  obs::Counter& swaps_;
  obs::Counter& traced_;
  obs::Counter& slow_queries_;
  // Engine runs whose max_substeps_in_step broke Theorem 3.2's k + 2.
  obs::Counter& substep_bound_exceeded_;
  obs::Gauge& epoch_gauge_;      // refreshed on swap + export
  obs::Gauge& in_flight_gauge_;  // refreshed on export
  obs::Histogram& latency_;

  // Trace sampling state: request sequence number for the every-Nth
  // pick, and whether station marks are stamped at all.
  std::atomic<std::uint64_t> trace_seq_{0};
  const bool marks_enabled_;

  // Result cache (null when disabled).
  std::unique_ptr<ResultCache> cache_;

  BoundedQueue<Pending> queue_;
  std::vector<std::thread> workers_;

  // Admission gate. Set by shutdown() before the queue closes, so submit
  // can distinguish "full" from "shutting down".
  std::atomic<bool> stopping_{false};

  // Pause gate for the workers.
  std::mutex pause_mutex_;
  std::condition_variable pause_cv_;
  bool paused_ = false;

  // In-flight tracking: accepted_ counts successful admissions,
  // completed_ counts fulfilled promises (both registry counters, see
  // above); drain() waits for the gap to close. accepted_ is advanced
  // under the queue's lock, before a worker can pop the request, so a
  // reader that loads completed_ first never sees more completions than
  // admissions. completed_ is only advanced under drain_mutex_ (then
  // notified), so a drainer cannot miss the final wakeup.
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  std::once_flag shutdown_once_;
};

/// Renders `server.stats()` (plus latency percentiles) as the daemon's
/// one-line `stats` verb output — every ServerStats counter appears as
/// `name=value`, making the line greppable and keeping the CLI, the
/// fixture tests, and the README metric table in lockstep:
///
///   accepted=5 completed=5 shed=0 invalid=0 shutdown=0 batches=4
///   mean_batch=1.25 cache_hits=1 cache_misses=4 epoch=1 swaps=0
///   in_flight=0 p50_us=42 p99_us=91 p999_us=91 traced=0 slow=0
///
/// Every value is read from the server's MetricsRegistry — the same cells
/// the `metrics` exposition renders — so the two can never disagree.
std::string format_stats_line(const SsspServer& server);

}  // namespace rs::serve
