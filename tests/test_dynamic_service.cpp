// DynamicSsspService end-to-end: live weight updates against a running
// daemon.
//
//  * apply_updates republishes: the very next serve matches Dijkstra on
//    the mutated graph and carries the bumped epoch;
//  * staged updates are invisible to the daemon (old epoch keeps serving
//    exactly) until a flush publishes them, re-updates of the same edge
//    across stage calls included (the last one wins);
//  * stage() refuses a bad batch whole, with nothing staged, and counts
//    the arcs that differ from the PUBLISHED weights;
//  * epoch-swapped serving under load: client threads race update/flush
//    cycles and every response is consistent with the single epoch it is
//    stamped with — no torn reads;
//  * the result cache survives swaps (stale rows never answer a new
//    epoch);
//  * adversarial (directed/multigraph) inputs stay exact through the
//    kNone heuristic, which preserves the graph as built.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "baseline/dijkstra.hpp"
#include "graph/update.hpp"
#include "serve/dynamic.hpp"
#include "test_util.hpp"

namespace rs::serve {
namespace {

using test::GraphCase;

DynamicSsspService::Options small_options() {
  DynamicSsspService::Options o;
  o.preprocess.rho = 8;
  o.preprocess.k = 2;
  return o;
}

QueryRequest targeted(Vertex source, std::vector<Vertex> targets) {
  QueryRequest req;
  req.source = source;
  req.targets = std::move(targets);
  return req;
}

std::vector<Vertex> spread_targets(const Graph& g, std::size_t count) {
  const Vertex n = g.num_vertices();
  std::vector<Vertex> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(static_cast<Vertex>(((i + 1) * n) / (count + 1)));
  }
  return out;
}

void expect_matches_dijkstra(const QueryResponse& resp, const Graph& g,
                             Vertex source, const char* label) {
  const std::vector<Dist> want = dijkstra(g, source);
  for (const TargetResult& tr : resp.targets) {
    ASSERT_EQ(tr.dist, want[tr.target])
        << label << " source=" << source << " target=" << tr.target;
  }
}

/// The daemon's full row from `source` equals Dijkstra on `g`.
void expect_row_matches_dijkstra(DynamicSsspService& svc, const Graph& g,
                                 Vertex source, const char* label) {
  EXPECT_EQ(svc.server().serve_sync(test::full_request(source)).dist,
            dijkstra(g, source))
      << label << " source=" << source;
}

TEST(DynamicService, ApplyUpdatesRepublishesAndBumpsEpoch) {
  const Graph g = test::weighted_suite(61)[0].graph;
  DynamicSsspService svc(g, small_options());
  const Vertex source = 3;
  const auto targets = spread_targets(g, 5);

  const QueryResponse before =
      svc.server().serve_sync(targeted(source, targets));
  EXPECT_EQ(before.graph_epoch, 1u);
  expect_matches_dijkstra(before, g, source, "before");

  // Shadow the mutation locally for the expected distances.
  const std::vector<WeightUpdate> batch = {
      {targets[0], g.arc_target(g.first_arc(targets[0])), 1},
      {source, g.arc_target(g.first_arc(source)), 140}};
  const Graph mutated = apply_weight_updates(g, batch).graph;

  const UpdateReport report = svc.apply_updates(batch);
  EXPECT_EQ(report.epoch, 2u);
  EXPECT_GT(report.dirty_balls, 0u);
  EXPECT_EQ(report.staged, 0u);
  EXPECT_FALSE(svc.has_staged());

  const QueryResponse after =
      svc.server().serve_sync(targeted(source, targets));
  EXPECT_EQ(after.graph_epoch, 2u);
  expect_matches_dijkstra(after, mutated, source, "after");
}

TEST(DynamicService, StagedUpdatesServeOldEpochUntilFlush) {
  const Graph g = test::weighted_suite(62)[2].graph;
  DynamicSsspService svc(g, small_options());
  const Vertex source = 1;
  const auto targets = spread_targets(g, 6);

  std::vector<WeightUpdate> batch = {
      {0, g.arc_target(g.first_arc(0)), 120},
      {targets[1], g.arc_target(g.first_arc(targets[1])), 1}};
  const Graph staged1 = apply_weight_updates(g, batch).graph;
  ASSERT_NE(dijkstra(staged1, source), dijkstra(g, source));
  const UpdateReport r1 = svc.stage(batch);
  EXPECT_EQ(r1.epoch, 1u);
  EXPECT_EQ(r1.staged, batch.size());
  EXPECT_TRUE(svc.has_staged());

  // The daemon still serves the published epoch (old weights).
  const QueryResponse old_epoch =
      svc.server().serve_sync(targeted(source, targets));
  EXPECT_EQ(old_epoch.graph_epoch, 1u);
  expect_matches_dijkstra(old_epoch, g, source, "published");
  expect_row_matches_dijkstra(svc, g, source, "published row");

  // A second stage re-updating the same edge is just as invisible...
  const std::vector<WeightUpdate> batch2 = {
      {0, g.arc_target(g.first_arc(0)), 2}};
  const Graph staged2 = apply_weight_updates(staged1, batch2).graph;
  ASSERT_NE(dijkstra(staged2, source), dijkstra(staged1, source));
  EXPECT_EQ(svc.stage(batch2).staged, batch.size() + batch2.size());
  expect_row_matches_dijkstra(svc, g, source, "published row 2");

  // ...and the flush publishes both batches with the later one winning.
  const UpdateReport r2 = svc.flush();
  EXPECT_EQ(r2.epoch, 2u);
  EXPECT_EQ(r2.staged, 0u);
  EXPECT_FALSE(svc.has_staged());
  const QueryResponse flushed =
      svc.server().serve_sync(targeted(source, targets));
  EXPECT_EQ(flushed.graph_epoch, 2u);
  expect_matches_dijkstra(flushed, staged2, source, "flushed");
  expect_row_matches_dijkstra(svc, staged2, source, "flushed row");
}

TEST(DynamicService, StageRefusesABadBatchAndStagesNothing) {
  const Graph g = test::weighted_suite(69)[0].graph;  // grid2d
  DynamicSsspService svc(g, small_options());
  const Vertex n = g.num_vertices();
  const WeightUpdate good = {0, g.arc_target(g.first_arc(0)), 50};
  // Opposite corners of the grid: no arc between them either way.
  for (EdgeId e = g.first_arc(0); e < g.last_arc(0); ++e) {
    ASSERT_NE(g.arc_target(e), n - 1);
  }
  // Each bad batch opens with a good update: a refused batch stages none
  // of its updates.
  const std::vector<std::vector<WeightUpdate>> bad = {
      {good, {0, n, 5}},            // vertex out of range
      {good, {good.u, good.v, 0}},  // weight below 1
      {good, {0, n - 1, 5}}};       // no arc between the endpoints
  for (const std::vector<WeightUpdate>& batch : bad) {
    EXPECT_THROW(svc.stage(batch), std::invalid_argument);
    EXPECT_FALSE(svc.has_staged());
  }
  EXPECT_DOUBLE_EQ(
      svc.server().metrics().gauge("rs_dyn_dirty_fraction").value(), 0.0);
  EXPECT_EQ(svc.flush().epoch, 1u);  // nothing to publish

  // A refused batch also leaves what was staged before it as it was.
  svc.stage({good});
  EXPECT_THROW(svc.stage(bad[0]), std::invalid_argument);
  const UpdateReport r = svc.flush();
  EXPECT_EQ(r.epoch, 2u);
  EXPECT_EQ(r.updated_arcs, 2u);  // both directions of the good edge
  expect_row_matches_dijkstra(svc, apply_weight_updates(g, {good}).graph, 0,
                              "after refused batch");
}

TEST(DynamicService, StageCountsArcsThatDifferFromThePublishedWeights) {
  const Graph g = test::weighted_suite(70)[5].graph;  // chain
  DynamicSsspService svc(g, small_options());
  const EdgeId e = g.first_arc(0);
  const Vertex v = g.arc_target(e);
  const Weight w = g.arc_weight(e);
  const Weight other = w + 1;
  EXPECT_EQ(svc.stage({{0, v, other}}).updated_arcs, 2u);  // both ways
  // Counted against the published weights, not the staged ones: the
  // same update again still differs from them, and restoring the
  // published weight differs from nothing.
  EXPECT_EQ(svc.stage({{0, v, other}}).updated_arcs, 2u);
  EXPECT_EQ(svc.stage({{0, v, w}}).updated_arcs, 0u);
  // The last stage wins: the flush changes no arc.
  EXPECT_EQ(svc.flush().updated_arcs, 0u);
  EXPECT_EQ(svc.server().engine_snapshot()->original_graph().weights(),
            g.weights());
}

TEST(DynamicService, FlushWithNothingStagedIsANoOp) {
  const Graph g = test::weighted_suite(63)[5].graph;  // chain
  DynamicSsspService svc(g, small_options());
  const UpdateReport r = svc.flush();
  EXPECT_EQ(r.epoch, 1u);
  EXPECT_EQ(r.updated_arcs, 0u);
  EXPECT_EQ(svc.server().engine_snapshot()->graph_epoch(), 1u);
}

TEST(DynamicService, FlushOfCancellingUpdatesPublishesNothing) {
  // Staging an edge to a new weight and then back nets out to no change:
  // the flush drops both, keeps the epoch, and leaves the cache warm.
  const Graph g = test::weighted_suite(66)[0].graph;
  auto options = small_options();
  options.server.enable_cache = true;
  DynamicSsspService svc(g, options);
  const auto targets = spread_targets(g, 3);
  (void)svc.server().serve_sync(targeted(5, targets));  // caches the row

  const Vertex v = g.arc_target(g.first_arc(5));
  const Weight w = g.arc_weight(g.first_arc(5));
  EXPECT_EQ(svc.stage({{5, v, w + 1}}).updated_arcs, 2u);
  svc.stage({{5, v, w}});
  obs::Gauge& frac = svc.server().metrics().gauge("rs_dyn_dirty_fraction");
  EXPECT_GT(frac.value(), 0.0);

  const UpdateReport r = svc.flush();
  EXPECT_EQ(r.updated_arcs, 0u);
  EXPECT_EQ(r.epoch, 1u);
  EXPECT_EQ(r.staged, 0u);
  EXPECT_FALSE(svc.has_staged());
  EXPECT_DOUBLE_EQ(frac.value(), 0.0);
  EXPECT_EQ(svc.server().engine_snapshot()->graph_epoch(), 1u);

  const QueryResponse hit = svc.server().serve_sync(targeted(5, targets));
  EXPECT_TRUE(hit.served_from_cache);
  EXPECT_EQ(hit.graph_epoch, 1u);
  expect_matches_dijkstra(hit, g, 5, "after a cancelling flush");
}

TEST(DynamicService, CachePurgedAcrossSwap) {
  const Graph g = test::weighted_suite(65)[0].graph;
  auto options = small_options();
  options.server.enable_cache = true;
  DynamicSsspService svc(g, options);
  const auto targets = spread_targets(g, 3);

  // Warm the cache on epoch 1 (owner run + a submit-time hit).
  (void)svc.server().serve_sync(targeted(5, targets));
  const QueryResponse hit = svc.server().serve_sync(targeted(5, targets));
  EXPECT_TRUE(hit.served_from_cache);
  EXPECT_EQ(hit.graph_epoch, 1u);

  const std::vector<WeightUpdate> batch = {
      {5, g.arc_target(g.first_arc(5)), 149}};
  const Graph mutated = apply_weight_updates(g, batch).graph;
  svc.apply_updates(batch);

  // The old row is keyed to epoch 1: the next serve recomputes on the new
  // epoch and is exact for the new weights.
  const QueryResponse fresh = svc.server().serve_sync(targeted(5, targets));
  EXPECT_FALSE(fresh.served_from_cache);
  EXPECT_EQ(fresh.graph_epoch, 2u);
  expect_matches_dijkstra(fresh, mutated, 5, "post-swap");
}

TEST(DynamicService, AdversarialGraphsStayExactUnderChurn) {
  // kNone preserves the graph exactly as built (no merge, no
  // symmetrization), so directed/multigraph/self-loop inputs round-trip
  // the whole dynamic pipeline.
  auto options = small_options();
  options.preprocess.heuristic = ShortcutHeuristic::kNone;
  for (const GraphCase& c : test::adversarial_suite(67)) {
    DynamicSsspService svc(c.graph, options);
    Graph shadow = c.graph;
    const auto targets = spread_targets(c.graph, 4);
    for (int round = 0; round < 2; ++round) {
      // Mutate the first arc of a few tails that have one.
      std::vector<WeightUpdate> batch;
      for (Vertex u = 0; u < shadow.num_vertices() && batch.size() < 3; ++u) {
        if (shadow.first_arc(u) == shadow.last_arc(u)) continue;
        const EdgeId e = shadow.first_arc(u);
        batch.push_back(WeightUpdate{
            u, shadow.arc_target(e),
            static_cast<Weight>(7 + 13 * (round + 1) + u % 5)});
      }
      const Graph published = std::move(shadow);
      shadow = apply_weight_updates(published, batch).graph;

      // Staged weights stay unseen until the flush publishes them.
      svc.stage(batch);
      expect_matches_dijkstra(svc.server().serve_sync(targeted(0, targets)),
                              published, 0, c.name.c_str());
      svc.flush();
      expect_matches_dijkstra(svc.server().serve_sync(targeted(0, targets)),
                              shadow, 0, c.name.c_str());
    }
  }
}

TEST(DynamicService, SwapUnderLoadEveryResponseConsistentWithItsEpoch) {
  const Graph g = test::weighted_suite(68)[0].graph;
  DynamicSsspService svc(g, small_options());
  const Vertex source = 4;
  const auto targets = spread_targets(g, 3);

  // Epoch -> exact distance row for that epoch's graph. The successor's
  // row is registered BEFORE the flush publishes it, so a client can
  // never observe an epoch the map does not yet know.
  std::mutex mu;
  std::map<std::uint64_t, std::vector<Dist>> rows;
  rows[1] = dijkstra(g, source);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> checked{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const QueryResponse resp =
            svc.server().serve_sync(targeted(source, targets));
        std::vector<Dist> want;
        {
          std::lock_guard<std::mutex> lock(mu);
          const auto it = rows.find(resp.graph_epoch);
          ASSERT_NE(it, rows.end()) << "unregistered epoch";
          want = it->second;
        }
        for (const TargetResult& tr : resp.targets) {
          ASSERT_EQ(tr.dist, want[tr.target])
              << "epoch " << resp.graph_epoch;
        }
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Graph shadow = g;
  for (int round = 0; round < 6; ++round) {
    const Vertex u = static_cast<Vertex>(3 * round + 1);
    const std::vector<WeightUpdate> batch = {
        {u, shadow.arc_target(shadow.first_arc(u)),
         static_cast<Weight>(1 + 37 * (round + 1) % 140)}};
    shadow = apply_weight_updates(shadow, batch).graph;
    const UpdateReport staged = svc.stage(batch);
    {
      std::lock_guard<std::mutex> lock(mu);
      rows[staged.epoch + 1] = dijkstra(shadow, source);
    }
    const UpdateReport flushed = svc.flush();
    ASSERT_EQ(flushed.epoch, staged.epoch + 1);
  }

  // On a loaded single-core machine all six rounds can finish before any
  // client gets a turn; keep serving until one response has been checked
  // so the consistency assertions above actually ran.
  while (checked.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  EXPECT_GT(checked.load(), 0u);
  EXPECT_EQ(svc.server().stats().swaps, 6u);
  EXPECT_EQ(svc.server().engine_snapshot()->graph_epoch(), 7u);
}

// Polls until the published epoch reaches `want` (the background flusher
// runs on its own thread) or a generous deadline passes.
bool wait_for_epoch(DynamicSsspService& svc, std::uint64_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    if (svc.server().engine_snapshot()->graph_epoch() >= want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

TEST(DynamicService, DirtyFractionGaugeTracksStagedWork) {
  const Graph g = test::weighted_suite(63)[0].graph;
  DynamicSsspService svc(g, small_options());
  obs::Gauge& frac =
      svc.server().metrics().gauge("rs_dyn_dirty_fraction");
  EXPECT_DOUBLE_EQ(frac.value(), 0.0);

  const std::vector<WeightUpdate> batch = {
      {0, g.arc_target(g.first_arc(0)), 999}};
  svc.stage(batch);
  EXPECT_GT(frac.value(), 0.0);
  EXPECT_LE(frac.value(), 1.0);
  // The gauge also rides the metrics export.
  EXPECT_NE(svc.server().export_metrics().find("rs_dyn_dirty_fraction"),
            std::string::npos);

  svc.flush();
  EXPECT_DOUBLE_EQ(frac.value(), 0.0);  // flush resets the debt
}

TEST(DynamicService, BackgroundFlushFiresOnDirtyFractionThreshold) {
  const Graph g = test::weighted_suite(64)[0].graph;
  DynamicSsspService::Options opts = small_options();
  // Any batch that dirties at least one ball crosses this threshold, so
  // the stage() below must trigger an immediate background flush.
  opts.flush_dirty_fraction = 1e-9;
  DynamicSsspService svc(g, opts);

  const std::vector<WeightUpdate> batch = {
      {1, g.arc_target(g.first_arc(1)), 777}};
  const Graph mutated = apply_weight_updates(g, batch).graph;
  svc.stage(batch);

  ASSERT_TRUE(wait_for_epoch(svc, 2));
  EXPECT_FALSE(svc.has_staged());
  const QueryResponse after =
      svc.server().serve_sync(targeted(2, spread_targets(g, 3)));
  EXPECT_EQ(after.graph_epoch, 2u);
  expect_matches_dijkstra(after, mutated, 2, "background-threshold");
}

TEST(DynamicService, BackgroundFlushFiresOnTimer) {
  const Graph g = test::weighted_suite(65)[0].graph;
  DynamicSsspService::Options opts = small_options();
  opts.flush_interval_ms = 10;  // threshold off: only the timer flushes
  DynamicSsspService svc(g, opts);

  const std::vector<WeightUpdate> batch = {
      {2, g.arc_target(g.first_arc(2)), 555}};
  const Graph mutated = apply_weight_updates(g, batch).graph;
  svc.stage(batch);

  ASSERT_TRUE(wait_for_epoch(svc, 2));
  EXPECT_FALSE(svc.has_staged());
  const QueryResponse after =
      svc.server().serve_sync(targeted(4, spread_targets(g, 3)));
  expect_matches_dijkstra(after, mutated, 4, "background-timer");
}

TEST(DynamicService, ShutdownWithFlusherAndStagedUpdatesIsClean) {
  const Graph g = test::weighted_suite(66)[0].graph;
  DynamicSsspService::Options opts = small_options();
  opts.flush_interval_ms = 60000;  // armed but won't fire during the test
  {
    DynamicSsspService svc(g, opts);
    svc.stage({{0, g.arc_target(g.first_arc(0)), 123}});
    EXPECT_TRUE(svc.has_staged());
    // Destructor must stop the flusher without forcing a final flush.
  }
}

}  // namespace
}  // namespace rs::serve
