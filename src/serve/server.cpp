#include "serve/server.hpp"

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/export.hpp"
#include "parallel/primitives.hpp"

namespace rs::serve {

namespace {

/// The constructor's engine argument, rejected before it is published.
std::shared_ptr<const SsspEngine> non_null(
    std::shared_ptr<const SsspEngine> engine) {
  if (engine == nullptr) {
    throw std::invalid_argument("SsspServer: null engine");
  }
  return engine;
}

/// Theorem 3.2's substep bound for a run on `eng`: k + 2 on the
/// (k, rho)-graph (k = 1 under kFull1Rho), or 0 without shortcuts.
std::size_t substep_bound(const SsspEngine& eng) {
  const PreprocessOptions& o = eng.preprocessing().options;
  if (o.heuristic == ShortcutHeuristic::kNone) return 0;
  // Widened before the + 2 so a k near the Vertex max cannot wrap.
  const std::size_t k =
      o.heuristic == ShortcutHeuristic::kFull1Rho ? 1 : std::size_t{o.k};
  return k + 2;
}

}  // namespace

const char* to_string(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kAccepted:
      return "accepted";
    case SubmitStatus::kQueueFull:
      return "queue_full";
    case SubmitStatus::kShuttingDown:
      return "shutting_down";
    case SubmitStatus::kInvalid:
      return "invalid";
  }
  return "unknown";
}

SsspServer::SsspServer(const SsspEngine& engine, ServerOptions opts)
    // Non-owning alias: the caller guarantees the engine outlives the
    // server, so the deleter is a no-op. swap_engine() may later publish
    // an owning successor over this.
    : SsspServer(std::shared_ptr<const SsspEngine>(&engine,
                                                   [](const SsspEngine*) {}),
                 std::move(opts)) {}

SsspServer::SsspServer(std::shared_ptr<const SsspEngine> engine,
                       ServerOptions opts)
    : engine_(non_null(std::move(engine))),
      opts_(opts),
      accepted_(metrics_.counter("rs_requests_accepted_total", {},
                                 "Requests admitted into the queue")),
      completed_(metrics_.counter("rs_requests_completed_total", {},
                                  "Promises fulfilled")),
      rejected_full_(metrics_.counter("rs_requests_rejected_total",
                                      {{"reason", "queue_full"}},
                                      "Rejected requests by reason")),
      rejected_invalid_(metrics_.counter("rs_requests_rejected_total",
                                         {{"reason", "invalid"}},
                                         "Rejected requests by reason")),
      rejected_shutdown_(metrics_.counter("rs_requests_rejected_total",
                                          {{"reason", "shutdown"}},
                                          "Rejected requests by reason")),
      batches_(metrics_.counter("rs_batches_total", {},
                                "Engine runs issued")),
      cache_hits_(metrics_.counter("rs_cache_hits_total", {},
                                   "Requests answered from a cached row")),
      cache_misses_(metrics_.counter(
          "rs_cache_misses_total", {},
          "Cache-eligible requests that had to compute (fills + busy "
          "misses)")),
      swaps_(metrics_.counter("rs_engine_swaps_total", {},
                              "swap_engine() publications")),
      traced_(metrics_.counter("rs_traced_requests_total", {},
                               "Requests sampled for a span breakdown")),
      slow_queries_(metrics_.counter(
          "rs_slow_queries_total", {},
          "Requests at or over the slow-query threshold")),
      substep_bound_exceeded_(metrics_.counter(
          "rs_substep_bound_exceeded_total", {},
          "Engine runs with a step over Theorem 3.2's k + 2 substeps")),
      epoch_gauge_(metrics_.gauge("rs_graph_epoch", {},
                                  "Published engine snapshot epoch")),
      in_flight_gauge_(metrics_.gauge(
          "rs_in_flight", {}, "Requests admitted but not yet completed")),
      latency_(metrics_.histogram("rs_request_latency_us", {},
                                  "End-to-end request latency "
                                  "(microseconds, submit to completion)")),
      marks_enabled_(opts.trace_sample != 0 || opts.slow_query_us != 0),
      queue_(opts.queue_capacity) {
  epoch_gauge_.set(static_cast<double>(engine_.pin()->graph_epoch()));
  if (opts_.enable_cache) {
    cache_ = std::make_unique<ResultCache>(opts_.cache);
  }
  paused_ = opts_.start_paused;
  const int n = num_workers();
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] {
      // Inside a region num_workers() is 1, so every engine run of this
      // worker stays on this thread and opens no team.
#pragma omp parallel num_threads(1)
      worker_loop();
    });
  }
}

SsspServer::~SsspServer() { shutdown(); }

SubmitStatus SsspServer::submit(QueryRequest req,
                                std::future<QueryResponse>& result) {
  if (stopping_.load(std::memory_order_acquire)) {
    rejected_shutdown_.add();
    return SubmitStatus::kShuttingDown;
  }
  // One pin for the whole admission path: validation and the cache key
  // come from the same snapshot even if a swap lands mid-submit.
  const std::shared_ptr<const SsspEngine> eng = engine_.pin();
  // Validate at the edge: a bad request is rejected before it is queued.
  try {
    eng->validate(req);
  } catch (const std::invalid_argument&) {
    rejected_invalid_.add();
    return SubmitStatus::kInvalid;
  }

  Pending pending;
  pending.request = std::move(req);
  pending.accepted_at = std::chrono::steady_clock::now();
  // Trace sampling: every Nth validated request gets the span treatment.
  // With the knob off this is one load and one branch — no clock, no
  // sequence bump, and the request flag stays false all the way down.
  if (opts_.trace_sample != 0) {
    const std::uint64_t seq =
        trace_seq_.fetch_add(1, std::memory_order_relaxed);
    if (seq % opts_.trace_sample == 0) {
      pending.traced = true;
      pending.request.trace = true;
      traced_.add();
    }
  }
  std::future<QueryResponse> fut = pending.promise.get_future();

  // Cache fast path: a hit is answered HERE, on the client thread —
  // O(|targets|) straight off the cached row, skipping the queue, the
  // workers, and the engine entirely. A miss enters the queue, as the
  // key's fill or as a busy miss that runs as it came.
  if (cache_ != nullptr && cache_eligible(pending.request)) {
    pending.key = key_for(*eng, pending.request);
    RowPtr row;
    const CacheAcquire got = cache_->acquire(pending.key, row);
    if (got == CacheAcquire::kHit) {
      cache_hits_.add();
      accepted_.add(1, std::memory_order_release);
      QueryResponse resp;
      answer_from_row(pending.request, *row, resp);
      complete(pending, std::move(resp));
      result = std::move(fut);
      return SubmitStatus::kAccepted;
    }
    cache_misses_.add();
    pending.fill = got == CacheAcquire::kFill;
  }

  const bool fill = pending.fill;
  const CacheKey key = pending.key;
  if (marks_enabled_) pending.t_enqueued = std::chrono::steady_clock::now();
  // Counted under the queue's lock, before a worker can pop and complete
  // the request, so completed_ never runs ahead of accepted_.
  const auto admit = [this] { accepted_.add(1, std::memory_order_release); };
  if (!queue_.try_push(std::move(pending), admit)) {
    // A fill that never runs frees its key for the next miss.
    if (fill) cache_->abandon(key);
    // A closed queue and a full queue both fail the push; report the one
    // the caller can act on.
    if (stopping_.load(std::memory_order_acquire)) {
      rejected_shutdown_.add();
      return SubmitStatus::kShuttingDown;
    }
    rejected_full_.add();
    return SubmitStatus::kQueueFull;
  }
  result = std::move(fut);
  return SubmitStatus::kAccepted;
}

QueryResponse SsspServer::serve_sync(QueryRequest req) {
  std::future<QueryResponse> fut;
  const SubmitStatus status = submit(std::move(req), fut);
  if (status != SubmitStatus::kAccepted) {
    throw std::runtime_error(std::string("SsspServer: request rejected: ") +
                             to_string(status));
  }
  return fut.get();
}

void SsspServer::pause() {
  std::lock_guard<std::mutex> lock(pause_mutex_);
  paused_ = true;
}

void SsspServer::resume() {
  {
    std::lock_guard<std::mutex> lock(pause_mutex_);
    paused_ = false;
  }
  pause_cv_.notify_all();
}

void SsspServer::drain() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drain_cv_.wait(lock, [&] {
    // completed_ first: every completion it counts was admitted before.
    const std::uint64_t done = completed_.value(std::memory_order_acquire);
    return done == accepted_.value(std::memory_order_acquire);
  });
}

void SsspServer::shutdown() {
  std::call_once(shutdown_once_, [&] {
    stopping_.store(true, std::memory_order_release);
    // Unpark the workers so a paused server still drains its backlog.
    resume();
    // close() stops pushes but pops keep draining the buffer, so every
    // accepted request is served before the workers see "closed+empty".
    queue_.close();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
  });
}

ServerStats SsspServer::stats() const {
  ServerStats s;
  // completed_ before accepted_, so in_flight() cannot wrap.
  s.completed = completed_.value(std::memory_order_acquire);
  s.accepted = accepted_.value(std::memory_order_acquire);
  s.rejected_full = rejected_full_.value();
  s.rejected_invalid = rejected_invalid_.value();
  s.rejected_shutdown = rejected_shutdown_.value();
  s.batches = batches_.value();
  s.cache_hits = cache_hits_.value();
  s.cache_misses = cache_misses_.value();
  s.epoch = engine_.pin()->graph_epoch();
  s.swaps = swaps_.value();
  s.traced = traced_.value();
  s.slow_queries = slow_queries_.value();
  return s;
}

std::string SsspServer::export_metrics(MetricsFormat format) const {
  // Refresh the live gauges so a scrape is current: the epoch of the
  // currently-published snapshot and the admitted-minus-completed gap.
  // (Reference members make this legal from a const method; the gauges
  // are registry cells, not server state.)
  epoch_gauge_.set(static_cast<double>(engine_.pin()->graph_epoch()));
  const std::uint64_t completed = completed_.value(std::memory_order_acquire);
  in_flight_gauge_.set(static_cast<double>(
      accepted_.value(std::memory_order_acquire) - completed));
  return format == MetricsFormat::kJson ? obs::to_json(metrics_)
                                        : obs::to_prometheus(metrics_);
}

ResultCacheStats SsspServer::cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : ResultCacheStats{};
}

std::shared_ptr<const SsspEngine> SsspServer::engine_snapshot() const {
  return engine_.pin();
}

void SsspServer::swap_engine(std::shared_ptr<const SsspEngine> next) {
  if (next == nullptr) {
    throw std::invalid_argument("SsspServer::swap_engine: null engine");
  }
  const std::uint64_t epoch = next->graph_epoch();
  // Check and publish as one step, so racing swaps publish in epoch order.
  std::lock_guard<std::mutex> lock(swap_mutex_);
  if (epoch <= engine_.pin()->graph_epoch()) {
    // Cache rows are keyed by epoch: a successor that does not raise it
    // would be answered from the rows of the graph it replaces.
    throw std::invalid_argument(
        "SsspServer::swap_engine: epoch does not grow");
  }
  engine_.publish(std::move(next));
  // Rows keyed to older epochs can never match again (epochs only grow);
  // reclaim their memory eagerly.
  if (cache_ != nullptr) cache_->purge_stale(epoch);
  epoch_gauge_.set(static_cast<double>(epoch));
  swaps_.add();
}

bool SsspServer::wait_not_paused() {
  std::unique_lock<std::mutex> lock(pause_mutex_);
  pause_cv_.wait(lock, [&] {
    return !paused_ || stopping_.load(std::memory_order_acquire);
  });
  return !stopping_.load(std::memory_order_acquire);
}

void SsspServer::worker_loop() {
  // This worker's context: it stays warm across every request and every
  // engine swap, since nothing in it depends on the graph's weights.
  QueryContext ctx;
  Pending p;
  for (;;) {
    // Parked while paused — but once stopping, fall through and keep
    // draining: pop returns false only when closed AND empty.
    wait_not_paused();
    if (!queue_.pop(p)) break;
    if (marks_enabled_) p.t_popped = std::chrono::steady_clock::now();
    execute(p, ctx);
  }
}

void SsspServer::assemble_trace(Pending& p, QueryResponse& resp,
                                std::chrono::steady_clock::time_point now,
                                std::uint64_t e2e_us) {
  using std::chrono::duration_cast;
  using std::chrono::nanoseconds;
  const auto ns_between = [](std::chrono::steady_clock::time_point a,
                             std::chrono::steady_clock::time_point b) {
    return b <= a ? std::uint64_t{0}
                  : static_cast<std::uint64_t>(
                        duration_cast<nanoseconds>(b - a).count());
  };
  const auto rel = [&](std::chrono::steady_clock::time_point t) {
    return ns_between(p.accepted_at, t);
  };
  // The synchronous cache-hit path never stamped queue marks: one span
  // covers the whole request. Otherwise the five stations tile
  // [accepted_at, now] back to back, so depth-0 durations sum to the
  // end-to-end latency exactly.
  obs::TraceBuffer tb;
  tb.enabled = true;
  tb.origin_ns = static_cast<std::uint64_t>(
      duration_cast<nanoseconds>(p.accepted_at.time_since_epoch()).count());
  const bool queued =
      p.t_enqueued != std::chrono::steady_clock::time_point{};
  if (!queued) {
    tb.add(obs::SpanId::kCacheHit, 0, 0, ns_between(p.accepted_at, now));
  } else {
    tb.add(obs::SpanId::kAdmission, 0, 0,
           ns_between(p.accepted_at, p.t_enqueued));
    tb.add(obs::SpanId::kQueueWait, 0, rel(p.t_enqueued),
           ns_between(p.t_enqueued, p.t_popped));
    tb.add(obs::SpanId::kBatchForm, 0, rel(p.t_popped),
           ns_between(p.t_popped, p.t_exec));
    tb.add(obs::SpanId::kEngine, 0, rel(p.t_exec),
           ns_between(p.t_exec, p.t_engine_done));
    tb.add(obs::SpanId::kRespond, 0, rel(p.t_engine_done),
           ns_between(p.t_engine_done, now));
    // Engine-phase detail (duration-only; anchored at the engine span's
    // start) from the RunStats hooks the engine filled for this traced
    // run.
    if (resp.stats.relax_ns != 0) {
      tb.add(obs::SpanId::kRelax, 1, rel(p.t_exec), resp.stats.relax_ns);
    }
    if (resp.stats.partition_ns != 0) {
      tb.add(obs::SpanId::kPartition, 1, rel(p.t_exec),
             resp.stats.partition_ns);
    }
  }
  if (p.traced) resp.trace = tb;
  if (opts_.slow_query_us != 0 && e2e_us >= opts_.slow_query_us) {
    slow_queries_.add();
    // One line per slow request, greppable, spans in microseconds. The
    // playbook (docs/OPERATIONS.md) reads these.
    char buf[512];
    int off = std::snprintf(
        buf, sizeof(buf), "rs_slow_query source=%llu e2e_us=%llu",
        static_cast<unsigned long long>(resp.source),
        static_cast<unsigned long long>(e2e_us));
    for (std::size_t i = 0; i < tb.size && off > 0 &&
                            static_cast<std::size_t>(off) < sizeof(buf);
         ++i) {
      off += std::snprintf(
          buf + off, sizeof(buf) - static_cast<std::size_t>(off),
          " %s_us=%llu", obs::to_string(tb.spans[i].id),
          static_cast<unsigned long long>(tb.spans[i].duration_ns / 1000));
    }
    std::fprintf(stderr, "%s\n", buf);
  }
}

void SsspServer::complete(Pending& p, QueryResponse&& resp) {
  const auto now = std::chrono::steady_clock::now();
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
      now - p.accepted_at);
  latency_.record(static_cast<std::uint64_t>(us.count()));
  if (p.traced || opts_.slow_query_us != 0) {
    assemble_trace(p, resp, now, static_cast<std::uint64_t>(us.count()));
  }
  p.promise.set_value(std::move(resp));
  count_completion();
}

void SsspServer::count_completion() {
  // Advance completed_ under the drain mutex so a drainer that just
  // checked the counters cannot go to sleep and miss this notification.
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    completed_.add(1, std::memory_order_release);
  }
  drain_cv_.notify_all();
}

void SsspServer::execute(Pending& p, QueryContext& ctx) {
  // One pin per request: a swap mid-run affects only later requests.
  const std::shared_ptr<const SsspEngine> eng = engine_.pin();
  if (marks_enabled_) p.t_exec = std::chrono::steady_clock::now();
  batches_.add();
  QueryResponse r;
  try {
    if (p.fill) {
      // A cache fill runs as a full-distance request so its row can be
      // published; every other request, busy misses included, runs as it
      // came.
      QueryRequest full;
      full.source = p.request.source;
      full.want_full_distances = true;
      full.trace = p.request.trace;
      eng->serve(full, ctx, r);
    } else {
      eng->serve(p.request, ctx, r);
    }
  } catch (...) {
    // The run failed alone (e.g. a request the engine swapped in since
    // admission no longer accepts): its promise carries the exception,
    // and a fill frees its key so the next miss fills it again.
    if (p.fill) cache_->abandon(p.key);
    p.promise.set_exception(std::current_exception());
    count_completion();
    return;
  }
  if (marks_enabled_) p.t_engine_done = std::chrono::steady_clock::now();

  // Live Theorem 3.2 check on every engine run (cache hits ran none).
  const std::size_t bound = substep_bound(*eng);
  if (bound != 0 && r.stats.max_substeps_in_step > bound) {
    substep_bound_exceeded_.add();
  }
  if (!p.fill) {
    complete(p, std::move(r));
    return;
  }
  // Publish the row, then answer the fill's own targeted request from
  // it — the fill computed, so served_from_cache stays false.
  auto row = std::make_shared<CachedRow>();
  row->source = p.request.source;
  row->graph_epoch = r.graph_epoch;
  row->dist = std::move(r.dist);
  row->stats = r.stats;
  cache_->fulfill(p.key, row);
  QueryResponse resp;
  answer_from_row(p.request, *row, resp);
  resp.served_from_cache = false;
  complete(p, std::move(resp));
}

std::string format_stats_line(const SsspServer& server) {
  const ServerStats s = server.stats();
  const auto snap = server.latency().snapshot();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "accepted=%llu completed=%llu shed=%llu invalid=%llu shutdown=%llu "
      "batches=%llu mean_batch=%.2f cache_hits=%llu "
      "cache_misses=%llu epoch=%llu swaps=%llu in_flight=%llu p50_us=%llu "
      "p99_us=%llu p999_us=%llu traced=%llu slow=%llu",
      static_cast<unsigned long long>(s.accepted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.rejected_full),
      static_cast<unsigned long long>(s.rejected_invalid),
      static_cast<unsigned long long>(s.rejected_shutdown),
      static_cast<unsigned long long>(s.batches), s.mean_batch(),
      static_cast<unsigned long long>(s.cache_hits),
      static_cast<unsigned long long>(s.cache_misses),
      static_cast<unsigned long long>(s.epoch),
      static_cast<unsigned long long>(s.swaps),
      static_cast<unsigned long long>(s.in_flight()),
      static_cast<unsigned long long>(snap.value_at_quantile(0.50)),
      static_cast<unsigned long long>(snap.value_at_quantile(0.99)),
      static_cast<unsigned long long>(snap.value_at_quantile(0.999)),
      static_cast<unsigned long long>(s.traced),
      static_cast<unsigned long long>(s.slow_queries));
  return std::string(buf);
}

}  // namespace rs::serve
