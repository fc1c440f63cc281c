// Dynamic-graph foundations:
//
//  * apply_weight_updates — undirected semantics (both arc directions and
//    every parallel arc move together), self-loops, last-update-wins
//    composition, no-op suppression, validation at the edge, EdgeId
//    stability across the rebuild;
//  * weight_changes — the sparse delta agrees with a replay of the batch
//    on a full copy of the weights;
//  * SnapshotSwap — concurrent pin/publish never yields a torn or null
//    snapshot and old pins stay valid across swaps.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "graph/builder.hpp"
#include "graph/graph_swap.hpp"
#include "graph/update.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

Graph directed_multigraph() {
  BuildOptions keep;
  keep.symmetrize = false;
  keep.remove_self_loops = false;
  keep.dedup = false;
  // 0 -> 1 (two parallel arcs), 1 -> 0, 1 -> 2, self-loop on 2.
  std::vector<EdgeTriple> edges = {
      {0, 1, 5}, {0, 1, 9}, {1, 0, 4}, {1, 2, 7}, {2, 2, 3}};
  return build_graph(3, std::move(edges), keep);
}

/// Random updates over arcs that exist in `g` (new weight 1..150).
std::vector<WeightUpdate> random_updates(const Graph& g, std::size_t count,
                                         std::mt19937& rng) {
  std::uniform_int_distribution<Weight> weight(1, 150);
  std::uniform_int_distribution<EdgeId> arc(0, g.num_edges() - 1);
  std::vector<WeightUpdate> out;
  for (std::size_t i = 0; i < count; ++i) {
    const EdgeId e = arc(rng);
    // Find the arc's tail by scanning offsets (test-side, clarity first).
    Vertex u = 0;
    while (g.last_arc(u) <= e) ++u;
    out.push_back(WeightUpdate{u, g.arc_target(e), weight(rng)});
  }
  return out;
}

TEST(WeightUpdate, RewritesBothDirectionsAndParallelArcs) {
  const Graph g = directed_multigraph();
  const UpdateApplication app = apply_weight_updates(g, {{0, 1, 2}});
  // Both parallel arcs 0->1 AND the reverse arc 1->0 now weigh 2.
  ASSERT_EQ(app.changes.size(), 3u);
  for (const ArcChange& c : app.changes) {
    EXPECT_EQ(c.w_new, 2u);
    EXPECT_NE(c.w_old, c.w_new);
    EXPECT_EQ(app.graph.arc_weight(c.arc), 2u);
    EXPECT_EQ(app.graph.arc_target(c.arc), c.v);
  }
  // Topology untouched: EdgeIds keep their meaning.
  EXPECT_EQ(app.graph.offsets(), g.offsets());
  EXPECT_EQ(app.graph.targets(), g.targets());
  // Changes arrive in ascending EdgeId order with correct tails.
  EXPECT_EQ(app.changes[0].u, 0u);
  EXPECT_EQ(app.changes[1].u, 0u);
  EXPECT_EQ(app.changes[2].u, 1u);
  EXPECT_EQ(app.changes[2].v, 0u);
}

TEST(WeightUpdate, SelfLoopTouchedOnce) {
  const Graph g = directed_multigraph();
  const UpdateApplication app = apply_weight_updates(g, {{2, 2, 8}});
  ASSERT_EQ(app.changes.size(), 1u);
  EXPECT_EQ(app.changes[0].u, 2u);
  EXPECT_EQ(app.changes[0].v, 2u);
  EXPECT_EQ(app.changes[0].w_old, 3u);
  EXPECT_EQ(app.changes[0].w_new, 8u);
}

TEST(WeightUpdate, LastUpdateWinsAndNoOpsAreDropped) {
  const Graph g = directed_multigraph();
  // 1->2 bounces 7 -> 20 -> 7: a batch-level no-op, omitted entirely.
  // 0<->1 lands on 11 with w_old reported as the PRE-batch weight.
  const UpdateApplication app =
      apply_weight_updates(g, {{1, 2, 20}, {0, 1, 3}, {1, 2, 7}, {0, 1, 11}});
  ASSERT_EQ(app.changes.size(), 3u);
  for (const ArcChange& c : app.changes) {
    EXPECT_EQ(c.w_new, 11u);
    EXPECT_TRUE(c.w_old == 5u || c.w_old == 9u || c.w_old == 4u);
  }
  EXPECT_EQ(app.graph.arc_weight(3), 7u);  // 1->2 back where it started
}

TEST(WeightUpdate, ValidatesAtTheEdge) {
  const Graph g = directed_multigraph();
  EXPECT_THROW(apply_weight_updates(g, {{0, 7, 2}}), std::invalid_argument);
  EXPECT_THROW(apply_weight_updates(g, {{9, 0, 2}}), std::invalid_argument);
  EXPECT_THROW(apply_weight_updates(g, {{0, 1, 0}}), std::invalid_argument);
  // No arc exists between 0 and 2 in either direction.
  EXPECT_THROW(apply_weight_updates(g, {{0, 2, 2}}), std::invalid_argument);
}

TEST(WeightUpdate, RestatingCurrentWeightIsANoOp) {
  const Graph g = directed_multigraph();
  const UpdateApplication app = apply_weight_updates(g, {{2, 2, 3}});
  EXPECT_TRUE(app.changes.empty());
  EXPECT_EQ(app.graph.weights(), g.weights());
}

TEST(WeightUpdate, SparseChangesMatchAFullReplay) {
  // Random batches over a directed multigraph with self-loops and over a
  // symmetric one, with repeated edges and restated weights: weight_changes
  // must list exactly the arcs whose weight a plain replay of the batch
  // (every arc u->v and v->u set in batch order) ends up changing, and
  // apply_weight_updates must report the same count.
  std::mt19937 rng(20240);
  for (const Graph& g :
       {directed_multigraph(), test::weighted_suite(7)[3].graph}) {
    for (int round = 0; round < 40; ++round) {
      std::vector<WeightUpdate> batch =
          random_updates(g, 1 + static_cast<std::size_t>(round % 9), rng);
      // Restate a current weight, then repeat an edge of the batch.
      const EdgeId e = g.first_arc(batch[0].u);
      batch.push_back({batch[0].u, g.arc_target(e), g.arc_weight(e)});
      batch.push_back(batch[static_cast<std::size_t>(round) % batch.size()]);

      std::vector<Weight> replay = g.weights();
      for (const WeightUpdate& up : batch) {
        for (const auto& [a, b] : {std::pair{up.u, up.v}, {up.v, up.u}}) {
          for (EdgeId arc = g.first_arc(a); arc < g.last_arc(a); ++arc) {
            if (g.arc_target(arc) == b) replay[arc] = up.w;
          }
        }
      }
      std::vector<ArcChange> want;
      for (Vertex u = 0; u < g.num_vertices(); ++u) {
        for (EdgeId arc = g.first_arc(u); arc < g.last_arc(u); ++arc) {
          if (replay[arc] != g.arc_weight(arc)) {
            want.push_back({u, g.arc_target(arc), g.arc_weight(arc),
                            replay[arc], arc});
          }
        }
      }
      const std::vector<ArcChange> got = weight_changes(g, batch);
      ASSERT_EQ(got.size(), want.size()) << "round " << round;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].arc, want[i].arc) << "round " << round;
        EXPECT_EQ(got[i].u, want[i].u) << "round " << round;
        EXPECT_EQ(got[i].v, want[i].v) << "round " << round;
        EXPECT_EQ(got[i].w_old, want[i].w_old) << "round " << round;
        EXPECT_EQ(got[i].w_new, want[i].w_new) << "round " << round;
      }
      const UpdateApplication app = apply_weight_updates(g, batch);
      EXPECT_EQ(app.changes.size(), want.size()) << "round " << round;
      EXPECT_EQ(app.graph.weights(), replay) << "round " << round;
    }
  }
}

TEST(SnapshotSwap, ConcurrentPinAndPublish) {
  const Graph base = test::weighted_suite(7)[0].graph;
  SnapshotSwap<Graph> swap(std::make_shared<const Graph>(base));
  std::atomic<bool> stop{false};

  // Readers: every pin must observe a complete snapshot with the base
  // graph's invariants, and pins taken before a publish must stay valid.
  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> pins{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::shared_ptr<const Graph> snap = swap.pin();
        ASSERT_NE(snap, nullptr);
        ASSERT_EQ(snap->num_vertices(), base.num_vertices());
        ASSERT_EQ(snap->num_edges(), base.num_edges());
        pins.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: republish weight-perturbed successors as fast as possible.
  std::mt19937 rng(11);
  for (int i = 0; i < 200; ++i) {
    const auto updates = random_updates(base, 3, rng);
    const std::shared_ptr<const Graph> cur = swap.pin();
    swap.publish(std::make_shared<const Graph>(
        apply_weight_updates(*cur, updates).graph));
  }
  // On a loaded single-core machine the 200 publishes can finish before
  // any reader gets a turn; keep publishing nothing until one pin landed.
  while (pins.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(pins.load(), 0u);
}

}  // namespace
}  // namespace rs
