// The serving-daemon contract (serve/server.hpp + serve/request_queue.hpp
// + the obs::Histogram latency record):
//
//  * lifecycle — start, drain with requests in flight, shutdown; counters
//    (accepted vs completed) reach equality and every promise is
//    fulfilled, including requests still queued when shutdown is called;
//  * admission control — a full queue rejects with kQueueFull (and only
//    the overflowing request), an out-of-range request with kInvalid
//    (validated at the edge, never coalesced into a batch), a stopped
//    server with kShuttingDown;
//  * micro-batching — N requests buffered when a batcher wakes coalesce
//    into ONE serve_batch call (asserted via ServerStats.batches), a
//    max_batch beyond the queue capacity still serves, and coalescing is
//    invisible in the answers;
//  * histogram — quantiles match a sorted-sample oracle within the
//    documented 1/32 relative error, across magnitudes;
//  * concurrency — many closed-loop clients against multiple batchers
//    produce exact answers and consistent counters;
//  * caching layer — repeats of a cache-eligible request are answered at
//    submit time from the result cache, a parked burst of identical
//    misses gives ONE fill and busy misses that run as they came, and
//    swap_engine() re-keys the cache for the successor engine.
//
// The pause/resume hook makes the queue-full and coalescing scenarios
// deterministic: with batchers parked, submissions buffer instead of
// racing the consumer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/radii.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "serve/request_queue.hpp"
#include "serve/server.hpp"
#include "shortcut/shortcut.hpp"

namespace rs {
namespace {

using serve::BoundedQueue;
using serve::ServerOptions;
using serve::ServerStats;
using serve::SsspServer;
using serve::SubmitStatus;

SsspEngine small_engine() {
  const Graph g =
      assign_uniform_weights(gen::road_network(12, 12, 3), 7, 1, 100);
  PreprocessOptions opts;
  opts.rho = 12;
  opts.k = 2;
  return SsspEngine(g, opts);
}

QueryRequest p2p(const SsspEngine& engine, std::uint64_t i) {
  const Vertex n = engine.original_graph().num_vertices();
  QueryRequest req;
  req.source = static_cast<Vertex>((i * 37) % n);
  req.targets = {static_cast<Vertex>((i * 53 + 11) % n)};
  return req;
}

TEST(BoundedQueue, PushPopOrderCapacityAndClose) {
  BoundedQueue<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_FALSE(q.try_push(4));  // full: backpressure, not blocking
  EXPECT_EQ(q.size(), 3u);

  std::vector<int> out;
  EXPECT_TRUE(q.pop_batch(out, 1));
  EXPECT_EQ(out, std::vector<int>({1}));  // FIFO
  EXPECT_TRUE(q.try_push(4));  // slot freed

  q.close();
  EXPECT_FALSE(q.try_push(5));  // closed rejects pushes...
  out.clear();
  EXPECT_TRUE(q.pop_batch(out, 1));  // ...but buffered items still drain
  EXPECT_EQ(out, std::vector<int>({2}));
  EXPECT_TRUE(q.pop_batch(out, 1));
  EXPECT_TRUE(q.pop_batch(out, 1));
  EXPECT_EQ(out, std::vector<int>({2, 3, 4}));
  EXPECT_FALSE(q.pop_batch(out, 1));  // closed AND empty
  EXPECT_EQ(out.size(), 3u);
}

TEST(BoundedQueue, PopBatchTakesBufferedItemsUpToMax) {
  BoundedQueue<int> q(6);
  for (int i = 1; i <= 6; ++i) ASSERT_TRUE(q.try_push(int{i}));

  std::vector<int> out;
  EXPECT_TRUE(q.pop_batch(out, 4));  // the max cut, in FIFO order
  EXPECT_EQ(out, std::vector<int>({1, 2, 3, 4}));
  EXPECT_EQ(q.size(), 2u);

  out.clear();
  EXPECT_TRUE(q.pop_batch(out, 0));  // max 0 still takes one item
  EXPECT_EQ(out, std::vector<int>({5}));

  ASSERT_TRUE(q.try_push(7));
  ASSERT_TRUE(q.try_push(8));
  q.close();
  out.clear();
  // Everything buffered, after close, across the ring's wrap point.
  EXPECT_TRUE(q.pop_batch(out, 64));
  EXPECT_EQ(out, std::vector<int>({6, 7, 8}));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.pop_batch(out, 64));  // false only once closed AND empty
  EXPECT_EQ(out.size(), 3u);

  // A consumer parked in pop_batch on an empty queue receives the next
  // push, then false once the queue is closed and drained.
  BoundedQueue<int> live(4);
  std::vector<int> got;
  bool first = false;
  bool second = true;
  std::thread consumer([&] {
    first = live.pop_batch(got, 4);
    second = live.pop_batch(got, 4);
  });
  EXPECT_TRUE(live.try_push(11));
  live.close();
  consumer.join();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
  EXPECT_EQ(got, std::vector<int>({11}));
}

TEST(Server, DrainWithRequestsInFlightThenShutdown) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.start_paused = true;  // everything below queues deterministically
  opts.max_batch = 4;
  SsspServer server(engine, opts);

  constexpr std::uint64_t kRequests = 10;
  std::vector<std::future<QueryResponse>> futures;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    std::future<QueryResponse> fut;
    ASSERT_EQ(server.submit(p2p(engine, i), fut), SubmitStatus::kAccepted);
    futures.push_back(std::move(fut));
  }
  EXPECT_EQ(server.stats().in_flight(), kRequests);

  server.resume();
  server.drain();  // blocks until every admitted request completed
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, kRequests);
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.in_flight(), 0u);
  EXPECT_EQ(server.latency().count(), kRequests);

  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const QueryResponse got = futures[i].get();
    const QueryResponse want = engine.serve(p2p(engine, i));
    ASSERT_EQ(got.targets.size(), 1u);
    EXPECT_EQ(got.targets[0].dist, want.targets[0].dist) << "request " << i;
  }

  server.shutdown();
  std::future<QueryResponse> fut;
  EXPECT_EQ(server.submit(p2p(engine, 0), fut),
            SubmitStatus::kShuttingDown);
  EXPECT_EQ(server.stats().rejected_shutdown, 1u);
}

TEST(Server, ShutdownServesRequestsStillQueued) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.start_paused = true;
  SsspServer server(engine, opts);

  std::vector<std::future<QueryResponse>> futures;
  for (std::uint64_t i = 0; i < 6; ++i) {
    std::future<QueryResponse> fut;
    ASSERT_EQ(server.submit(p2p(engine, i), fut), SubmitStatus::kAccepted);
    futures.push_back(std::move(fut));
  }
  // No resume: shutdown itself must unpark the batchers and drain the
  // buffered requests before joining — an accepted request is a promise.
  server.shutdown();
  for (std::uint64_t i = 0; i < futures.size(); ++i) {
    const QueryResponse got = futures[i].get();
    const QueryResponse want = engine.serve(p2p(engine, i));
    EXPECT_EQ(got.targets[0].dist, want.targets[0].dist) << "request " << i;
  }
  EXPECT_EQ(server.stats().in_flight(), 0u);
}

TEST(Server, FullQueueRejectsOnlyTheOverflow) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.queue_capacity = 4;
  opts.start_paused = true;  // nothing is consumed: capacity is exact
  SsspServer server(engine, opts);

  std::vector<std::future<QueryResponse>> futures(5);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_EQ(server.submit(p2p(engine, i), futures[i]),
              SubmitStatus::kAccepted);
  }
  EXPECT_EQ(server.submit(p2p(engine, 4), futures[4]),
            SubmitStatus::kQueueFull);
  EXPECT_EQ(server.stats().rejected_full, 1u);
  EXPECT_EQ(server.stats().accepted, 4u);

  server.resume();
  server.drain();
  for (std::uint64_t i = 0; i < 4; ++i) {  // admitted ones are unaffected
    const QueryResponse got = futures[i].get();
    const QueryResponse want = engine.serve(p2p(engine, i));
    EXPECT_EQ(got.targets[0].dist, want.targets[0].dist);
  }
}

TEST(Server, InvalidRequestRejectedAtAdmission) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.start_paused = true;
  SsspServer server(engine, opts);

  QueryRequest bad;
  bad.source = engine.original_graph().num_vertices();  // out of range
  std::future<QueryResponse> fut;
  EXPECT_EQ(server.submit(std::move(bad), fut), SubmitStatus::kInvalid);
  EXPECT_EQ(server.stats().rejected_invalid, 1u);
  EXPECT_EQ(server.stats().accepted, 0u);  // nothing entered the queue

  QueryRequest bad_target = p2p(engine, 1);
  bad_target.targets.push_back(engine.original_graph().num_vertices() + 7);
  EXPECT_EQ(server.submit(std::move(bad_target), fut),
            SubmitStatus::kInvalid);

  // A valid request after the rejects is served normally.
  ASSERT_EQ(server.submit(p2p(engine, 2), fut), SubmitStatus::kAccepted);
  server.resume();
  EXPECT_EQ(fut.get().targets[0].dist,
            engine.serve(p2p(engine, 2)).targets[0].dist);
}

TEST(Server, BufferedRequestsCoalesceIntoOneBatch) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.start_paused = true;
  opts.max_batch = 32;
  // The batcher takes exactly what is already buffered and never waits —
  // with everything queued before resume, that is one deterministic
  // micro-batch.
  opts.batchers = 1;
  SsspServer server(engine, opts);

  constexpr std::uint64_t kRequests = 12;
  std::vector<std::future<QueryResponse>> futures(kRequests);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    ASSERT_EQ(server.submit(p2p(engine, i), futures[i]),
              SubmitStatus::kAccepted);
  }
  server.resume();
  server.drain();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 1u) << "coalescing failed: " << stats.batches
                               << " serve_batch calls for " << kRequests
                               << " buffered requests";
  EXPECT_EQ(stats.max_batch, kRequests);
  EXPECT_DOUBLE_EQ(stats.mean_batch(), static_cast<double>(kRequests));
  for (std::uint64_t i = 0; i < kRequests; ++i) {  // coalescing is invisible
    EXPECT_EQ(futures[i].get().targets[0].dist,
              engine.serve(p2p(engine, i)).targets[0].dist);
  }
}

TEST(Server, MaxBatchBoundsCoalescing) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.start_paused = true;
  opts.max_batch = 4;
  opts.batchers = 1;
  SsspServer server(engine, opts);

  std::vector<std::future<QueryResponse>> futures(10);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_EQ(server.submit(p2p(engine, i), futures[i]),
              SubmitStatus::kAccepted);
  }
  server.resume();
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.max_batch, 4u);
  EXPECT_EQ(stats.batches, 3u);  // 4 + 4 + 2
}

TEST(Server, MaxBatchAboveQueueCapacityServes) {
  // One pop hands over at most the queue's capacity, so a max_batch far
  // beyond it (here too large to ever reserve) must serve like any other.
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.queue_capacity = 8;
  opts.max_batch = std::numeric_limits<std::size_t>::max();
  SsspServer server(engine, opts);
  for (std::uint64_t i = 0; i < 3; ++i) {
    const QueryResponse got = server.serve_sync(p2p(engine, i));
    const QueryResponse want = engine.serve(p2p(engine, i));
    ASSERT_EQ(got.targets.size(), 1u);
    EXPECT_EQ(got.targets[0].dist, want.targets[0].dist) << "request " << i;
  }
  // The promise is fulfilled before the completion counter advances;
  // drain() closes the gap.
  server.drain();
  EXPECT_EQ(server.stats().completed, 3u);
}

TEST(Server, ServeSyncThrowsOnRejection) {
  const SsspEngine engine = small_engine();
  SsspServer server(engine, {});
  server.shutdown();
  EXPECT_THROW(server.serve_sync(p2p(engine, 0)), std::runtime_error);
}

TEST(Server, ConcurrentClientsAgainstMultipleBatchersStayExact) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.max_batch = 8;
  opts.batchers = 3;
  SsspServer server(engine, opts);

  constexpr int kClients = 8;
  constexpr std::uint64_t kPerClient = 25;
  // References computed up front: the client loops must not touch the
  // engine directly while the daemon is serving.
  std::vector<Dist> want(kClients * kPerClient);
  for (std::uint64_t i = 0; i < want.size(); ++i) {
    want[i] = engine.serve(p2p(engine, i)).targets[0].dist;
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::uint64_t i = 0; i < kPerClient; ++i) {
        const std::uint64_t id =
            static_cast<std::uint64_t>(c) * kPerClient + i;
        const QueryResponse got = server.serve_sync(p2p(engine, id));
        if (got.targets[0].dist != want[id]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.drain();

  EXPECT_EQ(mismatches.load(), 0);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, kClients * kPerClient);
  EXPECT_EQ(stats.completed, kClients * kPerClient);
  EXPECT_EQ(server.latency().count(), kClients * kPerClient);
  EXPECT_GE(stats.batches, 1u);
}

TEST(Server, CacheAnswersRepeatsAtSubmitTime) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.enable_cache = true;
  SsspServer server(engine, opts);

  QueryRequest req = p2p(engine, 5);
  const QueryResponse first = server.serve_sync(req);
  EXPECT_FALSE(first.served_from_cache);
  const QueryResponse second = server.serve_sync(req);
  EXPECT_TRUE(second.served_from_cache);
  EXPECT_EQ(second.targets[0].dist, first.targets[0].dist);
  EXPECT_EQ(second.graph_epoch, first.graph_epoch);

  // serve_sync returns on promise fulfillment, which can race ahead of
  // the completion counter by an instant; drain() closes the gap.
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.completed, 2u);  // hits still count as completions

  // Path requests bypass the cache entirely (expansion needs the engine).
  QueryRequest paths = req;
  paths.want_paths = true;
  const QueryResponse third = server.serve_sync(paths);
  EXPECT_FALSE(third.served_from_cache);
  EXPECT_EQ(third.targets[0].dist, first.targets[0].dist);
  const ServerStats after = server.stats();
  EXPECT_EQ(after.cache_hits, 1u);
  EXPECT_EQ(after.cache_misses, 1u);
}

TEST(Server, CacheFillsOnceForABurstOfMisses) {
  // With the batchers parked, 8 identical requests are admitted before
  // any serving happens: the first must FILL the key and the other 7 be
  // BUSY misses that run as they came, in the same micro-batch.
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.enable_cache = true;
  opts.start_paused = true;
  SsspServer server(engine, opts);

  const QueryRequest req = p2p(engine, 11);
  const QueryResponse want = engine.serve(req);
  std::vector<std::future<QueryResponse>> futures(8);
  for (auto& fut : futures) {
    ASSERT_EQ(server.submit(req, fut), SubmitStatus::kAccepted);
  }
  const auto flight = server.cache_stats();
  EXPECT_EQ(flight.misses, 1u);
  EXPECT_EQ(flight.single_flight_waits, 7u);  // the busy misses
  EXPECT_EQ(flight.hits, 0u);

  server.resume();
  for (auto& fut : futures) {
    const QueryResponse got = fut.get();
    EXPECT_FALSE(got.served_from_cache);
    EXPECT_EQ(got.targets[0].dist, want.targets[0].dist);
  }
  server.drain();
  EXPECT_EQ(server.stats().completed, 8u);
  EXPECT_EQ(server.stats().cache_misses, 8u);

  // The fill published its row: a ninth request is a submit-time hit.
  const QueryResponse ninth = server.serve_sync(req);
  EXPECT_TRUE(ninth.served_from_cache);
  EXPECT_EQ(ninth.targets[0].dist, want.targets[0].dist);
  EXPECT_EQ(server.cache_stats().hits, 1u);
}

TEST(Server, OnGraphReplacedRefreshesCache) {
  const Graph g1 =
      assign_uniform_weights(gen::road_network(12, 12, 3), 7, 1, 100);
  PreprocessOptions popts;
  popts.rho = 12;
  popts.k = 2;
  const SsspEngine engine(g1, popts);
  ServerOptions opts;
  opts.enable_cache = true;
  SsspServer server(engine, opts);

  const QueryRequest req = p2p(engine, 3);
  (void)server.serve_sync(req);
  EXPECT_TRUE(server.serve_sync(req).served_from_cache);

  // Publish the successor for the new weights: swap_engine purges the
  // stale cache rows.
  const Graph g2 =
      assign_uniform_weights(gen::road_network(12, 12, 3), 8, 1, 100);
  const auto next = std::make_shared<const SsspEngine>(
      SsspEngine::next_epoch(engine, g2, preprocess(g2, popts)));
  server.swap_engine(next);

  // The old row no longer matches: fresh compute, stamped with the new
  // epoch, equal to a direct engine serve on the new graph.
  const QueryResponse after = server.serve_sync(req);
  EXPECT_FALSE(after.served_from_cache);
  EXPECT_EQ(after.graph_epoch, 2u);
  EXPECT_EQ(after.targets[0].dist, next->serve(req).targets[0].dist);
  EXPECT_TRUE(server.serve_sync(req).served_from_cache);
}

TEST(Server, FormatStatsLinePrintsEveryCounter) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.enable_cache = true;
  SsspServer server(engine, opts);
  const QueryRequest req = p2p(engine, 2);
  (void)server.serve_sync(req);
  (void)server.serve_sync(req);  // submit-time cache hit
  server.drain();

  const std::string line = serve::format_stats_line(server);
  // Every ServerStats counter must appear as a name=value token — the
  // fixture test of the daemon's `stats` verb rides on this line too.
  for (const char* token :
       {"accepted=2", "completed=2", "shed=0", "invalid=0", "shutdown=0",
        "batches=", "mean_batch=", "max_batch=", "cache_hits=1",
        "cache_misses=1", "epoch=1", "swaps=0",
        "in_flight=0", "p50_us=", "p99_us=", "p999_us="}) {
    EXPECT_NE(line.find(token), std::string::npos)
        << "missing " << token << " in: " << line;
  }
}

TEST(Server, SwapEngineRepublishesWithoutQuiescence) {
  const Graph g1 =
      assign_uniform_weights(gen::road_network(12, 12, 3), 7, 1, 100);
  PreprocessOptions popts;
  popts.rho = 12;
  popts.k = 2;
  auto first = std::make_shared<const SsspEngine>(g1, popts);
  ServerOptions opts;
  opts.enable_cache = true;
  SsspServer server(first, opts);

  const QueryRequest req = p2p(*first, 3);
  (void)server.serve_sync(req);
  EXPECT_TRUE(server.serve_sync(req).served_from_cache);
  EXPECT_EQ(server.stats().epoch, 1u);

  // Publish a successor mid-traffic: no pause, no drain.
  const Graph g2 =
      assign_uniform_weights(gen::road_network(12, 12, 3), 8, 1, 100);
  auto second = std::make_shared<const SsspEngine>(
      SsspEngine::next_epoch(*first, g2, preprocess(g2, popts)));
  server.swap_engine(second);

  EXPECT_EQ(server.stats().epoch, 2u);
  EXPECT_EQ(server.stats().swaps, 1u);
  EXPECT_EQ(server.engine_snapshot()->graph_epoch(), 2u);

  // The epoch-1 row cannot answer epoch-2 traffic; the fresh answer is
  // exact for the new graph and re-cacheable.
  const QueryResponse after = server.serve_sync(req);
  EXPECT_FALSE(after.served_from_cache);
  EXPECT_EQ(after.graph_epoch, 2u);
  EXPECT_EQ(after.targets[0].dist, second->serve(req).targets[0].dist);
  EXPECT_TRUE(server.serve_sync(req).served_from_cache);
}

TEST(Server, EngineSnapshotKeepsOldEpochAliveAcrossSwap) {
  const Graph g1 =
      assign_uniform_weights(gen::road_network(12, 12, 3), 9, 1, 100);
  PreprocessOptions popts;
  popts.rho = 12;
  popts.k = 2;
  auto first = std::make_shared<const SsspEngine>(g1, popts);
  SsspServer server(first, {});
  const std::shared_ptr<const SsspEngine> pinned = server.engine_snapshot();
  first.reset();  // server + pin now hold the only references

  const Graph g2 =
      assign_uniform_weights(gen::road_network(12, 12, 3), 10, 1, 100);
  server.swap_engine(std::make_shared<const SsspEngine>(
      SsspEngine::next_epoch(*pinned, g2, preprocess(g2, popts))));

  // The pre-swap pin still serves the old epoch's answers.
  EXPECT_EQ(pinned->graph_epoch(), 1u);
  const QueryRequest req = p2p(*pinned, 5);
  EXPECT_EQ(pinned->serve(req).graph_epoch, 1u);
  EXPECT_EQ(server.engine_snapshot()->graph_epoch(), 2u);
}

TEST(ObsHistogram, BucketRoundTripBoundsRelativeError) {
  // Every value lands in a bucket whose upper bound is >= the value and
  // within the documented 1/32 relative error of it.
  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 0; v < 300; ++v) values.push_back(v);
  for (std::uint64_t v = 300; v < (1ull << 40); v = v * 3 + 1) {
    values.push_back(v);
  }
  values.push_back(std::numeric_limits<std::uint64_t>::max());
  for (const std::uint64_t v : values) {
    const std::size_t idx = obs::Histogram::bucket_index(v);
    ASSERT_LT(idx, obs::Histogram::kBuckets) << v;
    const std::uint64_t upper = obs::Histogram::bucket_upper(idx);
    EXPECT_GE(upper, v);
    EXPECT_LE(static_cast<double>(upper - v),
              static_cast<double>(v) / 32.0 + 1.0)
        << "value " << v << " bucket " << idx << " upper " << upper;
  }
}

TEST(ObsHistogram, QuantilesMatchSortedSampleOracle) {
  // Record a deterministic skewed sample, then compare every quantile
  // against the exact order statistic from the sorted samples.
  obs::Histogram hist;
  std::vector<std::uint64_t> samples;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Mostly small values with a long tail — the shape of a latency
    // distribution under micro-batching.
    const std::uint64_t v =
        (i % 10 == 0) ? 1000 + x % 100000 : 50 + x % 400;
    samples.push_back(v);
    hist.record(v);
  }
  ASSERT_EQ(hist.count(), samples.size());
  std::sort(samples.begin(), samples.end());

  const auto snap = hist.snapshot();
  for (const double q : {0.0, 0.10, 0.50, 0.90, 0.99, 0.999, 1.0}) {
    const std::uint64_t rank_raw = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const std::uint64_t rank = rank_raw == 0 ? 1 : rank_raw;
    const std::uint64_t exact = samples[rank - 1];
    const std::uint64_t est = snap.value_at_quantile(q);
    EXPECT_GE(est, exact) << "q=" << q;  // bucket upper bound: never under
    EXPECT_LE(static_cast<double>(est),
              static_cast<double>(exact) * (1.0 + 1.0 / 32.0) + 1.0)
        << "q=" << q;
  }
}

TEST(ObsHistogram, EmptyAndResetReportZero) {
  obs::Histogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.value_at_quantile(0.99), 0u);
  hist.record(123);
  EXPECT_EQ(hist.value_at_quantile(0.5),
            obs::Histogram::bucket_upper(obs::Histogram::bucket_index(123)));
  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.value_at_quantile(0.5), 0u);
}

TEST(Observability, StatsRegistryAndExpositionReadTheSameCells) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.enable_cache = true;
  SsspServer server(engine, opts);
  const QueryRequest req = p2p(engine, 4);
  (void)server.serve_sync(req);
  (void)server.serve_sync(req);  // cache hit
  server.drain();

  // One source of truth: ServerStats, the raw registry handles, and the
  // Prometheus exposition must all report the same numbers.
  const ServerStats s = server.stats();
  EXPECT_EQ(s.accepted, 2u);
  EXPECT_EQ(
      server.metrics().counter("rs_requests_accepted_total").value(), 2u);
  EXPECT_EQ(server.metrics().counter("rs_cache_hits_total").value(),
            s.cache_hits);
  EXPECT_EQ(server.metrics().counter("rs_cache_misses_total").value(),
            s.cache_misses);

  const std::string text = server.export_metrics();
  EXPECT_NE(text.find("rs_requests_accepted_total 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("rs_requests_completed_total 2"), std::string::npos);
  EXPECT_NE(text.find("rs_cache_hits_total 1"), std::string::npos);
  EXPECT_NE(text.find("rs_graph_epoch 1"), std::string::npos);
  EXPECT_NE(text.find("rs_in_flight 0"), std::string::npos);
  EXPECT_NE(text.find("rs_request_latency_us_count 2"), std::string::npos);

  const std::string json =
      server.export_metrics(serve::MetricsFormat::kJson);
  EXPECT_NE(json.find("\"name\":\"rs_requests_accepted_total\""),
            std::string::npos);
}

TEST(Observability, TraceSampleOneSpansTileEndToEndLatency) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.trace_sample = 1;
  SsspServer server(engine, opts);

  const QueryResponse resp = server.serve_sync(p2p(engine, 6));
  server.drain();

  ASSERT_TRUE(resp.trace.enabled);
  ASSERT_GE(resp.trace.size, 5u);  // the five stations (+ engine detail)
  const obs::SpanId want[] = {obs::SpanId::kAdmission,
                              obs::SpanId::kQueueWait,
                              obs::SpanId::kBatchForm, obs::SpanId::kEngine,
                              obs::SpanId::kRespond};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(resp.trace.spans[i].id, want[i]) << i;
    EXPECT_EQ(resp.trace.spans[i].depth, 0u);
  }
  // Stations tile [admission, completion] contiguously.
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(resp.trace.spans[i].start_ns,
              resp.trace.spans[i - 1].start_ns +
                  resp.trace.spans[i - 1].duration_ns);
  }
  // Any engine-phase detail is depth 1 and fits inside the engine span.
  for (std::size_t i = 5; i < resp.trace.size; ++i) {
    EXPECT_EQ(resp.trace.spans[i].depth, 1u);
  }

  // Acceptance: span durations sum to the e2e latency within 10%. The
  // histogram quantile is a bucket UPPER bound (<= 1/32 high), so compare
  // against it with that error plus 2us of truncation slack.
  const double spans_us =
      static_cast<double>(resp.trace.station_total_ns()) / 1000.0;
  const auto p100 =
      static_cast<double>(server.latency().value_at_quantile(1.0));
  EXPECT_LE(spans_us, p100 + 2.0);
  EXPECT_GE(spans_us, p100 / (1.0 + 1.0 / 32.0) - 2.0);
  EXPECT_EQ(server.stats().traced, 1u);
}

TEST(Observability, TraceSamplingSelectsEveryNthRequest) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.trace_sample = 2;
  SsspServer server(engine, opts);

  int traced = 0;
  for (std::uint64_t i = 0; i < 6; ++i) {
    if (server.serve_sync(p2p(engine, i)).trace.enabled) ++traced;
  }
  server.drain();
  EXPECT_EQ(traced, 3);  // sequence 0, 2, 4
  EXPECT_EQ(server.stats().traced, 3u);

  // Untraced requests carry an empty, disabled buffer.
  SsspServer untraced(engine, {});
  const QueryResponse resp = untraced.serve_sync(p2p(engine, 1));
  EXPECT_FALSE(resp.trace.enabled);
  EXPECT_EQ(resp.trace.size, 0u);
  EXPECT_EQ(untraced.stats().traced, 0u);
}

TEST(Observability, CacheHitTraceIsOneSynchronousSpan) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.enable_cache = true;
  opts.trace_sample = 1;
  SsspServer server(engine, opts);

  const QueryRequest req = p2p(engine, 9);
  (void)server.serve_sync(req);  // fill: computes + caches
  const QueryResponse hit = server.serve_sync(req);
  server.drain();

  ASSERT_TRUE(hit.served_from_cache);
  ASSERT_TRUE(hit.trace.enabled);
  ASSERT_EQ(hit.trace.size, 1u);
  EXPECT_EQ(hit.trace.spans[0].id, obs::SpanId::kCacheHit);
  EXPECT_EQ(hit.trace.spans[0].depth, 0u);
}

std::uint64_t substep_bound_exceeded(SsspServer& server) {
  return server.metrics().counter("rs_substep_bound_exceeded_total").value();
}

TEST(Observability, SubstepBoundCounterStaysZeroOnARoadGraph) {
  const SsspEngine engine = small_engine();
  SsspServer server(engine, {});
  const Vertex n = engine.original_graph().num_vertices();
  for (std::uint64_t i = 0; i < 300; ++i) {
    QueryRequest req = p2p(engine, i);
    if (i % 10 == 0) {
      req.targets.clear();
      req.want_full_distances = true;
    }
    const QueryResponse resp = server.serve_sync(std::move(req));
    ASSERT_LT(resp.source, n);
  }
  server.drain();
  EXPECT_EQ(substep_bound_exceeded(server), 0u);
  EXPECT_NE(server.export_metrics().find("rs_substep_bound_exceeded_total 0"),
            std::string::npos);
}

TEST(Observability, SubstepBoundCounterCountsBrokenRadii) {
  // A chain tagged as a (3, rho)-graph under kDP, but with infinite radii:
  // every query is one step of Bellman-Ford over the whole chain, far
  // beyond k + 2 = 5 substeps.
  const Graph g = gen::chain(40);
  PreprocessResult pre;
  pre.graph = g;
  pre.radius = bellman_ford_radii(g.num_vertices());
  pre.options.k = 3;
  pre.options.heuristic = ShortcutHeuristic::kDP;
  const SsspEngine engine(g, pre);
  SsspServer server(engine, {});
  for (std::uint64_t i = 0; i < 4; ++i) {
    QueryRequest req;
    req.source = 0;
    req.targets = {39};
    EXPECT_EQ(server.serve_sync(std::move(req)).targets[0].dist, 39u);
  }
  server.drain();
  EXPECT_EQ(substep_bound_exceeded(server), 4u);

  // The same radii without shortcuts claim no bound, so nothing counts.
  pre.options.heuristic = ShortcutHeuristic::kNone;
  const SsspEngine plain(g, pre);
  SsspServer quiet(plain, {});
  QueryRequest req;
  req.source = 0;
  req.targets = {39};
  (void)quiet.serve_sync(std::move(req));
  quiet.drain();
  EXPECT_EQ(substep_bound_exceeded(quiet), 0u);
}

TEST(Observability, SlowQueryThresholdCountsSlowRequests) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.slow_query_us = 1;  // everything is "slow": the counter must move
  SsspServer server(engine, opts);
  (void)server.serve_sync(p2p(engine, 3));
  server.drain();
  EXPECT_EQ(server.stats().slow_queries, 1u);
  EXPECT_NE(server.export_metrics().find("rs_slow_queries_total 1"),
            std::string::npos);

  // A sky-high threshold never fires.
  SsspServer quiet(engine, {});  // slow_query_us = 0: disabled
  (void)quiet.serve_sync(p2p(engine, 3));
  quiet.drain();
  EXPECT_EQ(quiet.stats().slow_queries, 0u);
}

}  // namespace
}  // namespace rs
