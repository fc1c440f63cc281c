// The serving API contract (core/request.hpp + SsspEngine::serve*):
//
//  * targeted serve returns distances BIT-IDENTICAL to a full query for
//    every requested target — over the weighted, unit-weight AND
//    adversarial suites, and several worker counts (early termination
//    must be invisible in the answers);
//  * early exit actually fires: on a path graph with a near target the
//    round count strictly drops versus the full run (asserted via
//    RunStats);
//  * serve_batch == per-request serve on a sequential context, in input
//    order, for mixed requests;
//  * expanded paths are genuine shortest paths of the ORIGINAL graph;
//  * every entry point bounds-checks its inputs;
//  * responses carry provenance — graph_epoch stamping across next_epoch(),
//    whose successor answers for the new graph — and the kTopK request
//    shape is validated at the edge;
//  * top-k — kTopK responses equal the sorted (dist, vertex) prefix of a
//    full Dijkstra run, across weighted and unit-weight graphs, worker
//    counts, and k up to beyond the reachable count;
//  * one target on a shortcut engine — two searches that meet — equals
//    Dijkstra with genuine shortest paths, and the same answer and work
//    counts, on every route (one worker, a sequential context, a
//    request-parallel batch, a default context at four workers and a
//    batch narrower than the team), including s == t, an adjacent
//    target, an unreachable target and a warm context reused across
//    sources;
//  * paths over zero-weight arcs run from the source to the target on
//    every route, and a shortcut engine's paths, which walk its
//    symmetric graph's own arcs, equal the walk over its transpose.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>

#include "baseline/dijkstra.hpp"
#include "core/engine.hpp"
#include "core/query_context.hpp"
#include "core/radii.hpp"
#include "core/radius_stepping.hpp"
#include "core/sp_tree.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "parallel/context_pool.hpp"
#include "parallel/primitives.hpp"
#include "shortcut/shortcut.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

using test::WorkerGuard;

/// Engine wrapper that skips preprocessing (constant radii, no shortcuts)
/// so directed/multigraph/unit-weight inputs stay exactly as built.
SsspEngine raw_engine(const Graph& g, Dist r = 25) {
  PreprocessResult pre;
  pre.graph = g;
  pre.radius = constant_radii(g.num_vertices(), r);
  pre.options.heuristic = ShortcutHeuristic::kNone;
  return SsspEngine(g, std::move(pre));
}

std::vector<Vertex> spread_sources(const Graph& g, std::size_t count) {
  const Vertex n = g.num_vertices();
  std::vector<Vertex> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(static_cast<Vertex>((i * n) / count));
  }
  return out;
}

std::vector<Vertex> spread_targets(const Graph& g, std::size_t count) {
  const Vertex n = g.num_vertices();
  std::vector<Vertex> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(static_cast<Vertex>(((i + 1) * n) / (count + 1)));
  }
  return out;
}

TEST(Serve, TargetedMatchesFullQueryOnWeightedSuite) {
  WorkerGuard guard;
  for (const auto& [name, g] : test::weighted_suite(13)) {
    PreprocessOptions opts;
    opts.rho = 10;
    opts.k = 2;
    const SsspEngine engine(g, opts);
    const Vertex source = g.num_vertices() / 3;
    const std::vector<Vertex> targets = spread_targets(g, 6);

    const QueryResponse full = engine.serve(test::full_request(source));
    QueryRequest req;
    req.source = source;
    req.targets = targets;
    for (const int nw : {1, 3, 8}) {
      set_num_workers(nw);
      const QueryResponse resp = engine.serve(req);
      ASSERT_EQ(resp.targets.size(), targets.size());
      EXPECT_EQ(resp.source, source);
      EXPECT_TRUE(resp.dist.empty());  // O(|targets|) response only
      for (std::size_t i = 0; i < targets.size(); ++i) {
        EXPECT_EQ(resp.targets[i].target, targets[i]);
        EXPECT_EQ(resp.targets[i].dist, full.dist[targets[i]])
            << name << " nw=" << nw << " target " << targets[i];
      }
      // Early termination never runs MORE rounds than the full query.
      EXPECT_LE(resp.stats.steps, full.stats.steps) << name;
    }
  }
}

TEST(Serve, TargetedMatchesDijkstraOnAdversarialSuite) {
  WorkerGuard guard;
  for (const auto& [name, g] : test::adversarial_suite(3)) {
    const SsspEngine engine = raw_engine(g);
    const std::vector<Vertex> targets = spread_targets(g, 5);
    const auto ref = dijkstra(g, 1);
    for (const int nw : {1, 4}) {
      set_num_workers(nw);
      QueryRequest req;
      req.source = 1;
      req.targets = targets;
      const QueryResponse resp = engine.serve(req);
      for (std::size_t i = 0; i < targets.size(); ++i) {
        EXPECT_EQ(resp.targets[i].dist, ref[targets[i]])
            << name << " nw=" << nw;
      }
    }
  }
}

TEST(Serve, TargetedMatchesFullQueryOnUnitWeightSuite) {
  WorkerGuard guard;
  for (const auto& [name, g] : test::unweighted_suite(17)) {
    const SsspEngine engine = raw_engine(g, 6);
    const std::vector<Vertex> targets = spread_targets(g, 6);
    const QueryResponse full = engine.serve(test::full_request(0));
    ASSERT_EQ(full.dist, dijkstra(g, 0)) << name;
    for (const int nw : {1, 3, 8}) {
      set_num_workers(nw);
      QueryRequest req;
      req.source = 0;
      req.targets = targets;
      const QueryResponse resp = engine.serve(req);
      for (std::size_t i = 0; i < targets.size(); ++i) {
        EXPECT_EQ(resp.targets[i].dist, full.dist[targets[i]])
            << name << " nw=" << nw << " target " << targets[i];
      }
    }
  }
}

TEST(Serve, EarlyExitStrictlyReducesRoundsOnPathGraph) {
  // A long weighted chain with the source at one end and the target right
  // next to it: the full run needs many steps (bounded frontier), the
  // targeted run should stop almost immediately.
  WorkerGuard guard;
  const Graph g = assign_uniform_weights(gen::chain(400), 3, 1, 100);
  PreprocessOptions opts;
  opts.rho = 8;
  opts.k = 2;
  const SsspEngine engine(g, opts);

  const QueryResponse full = engine.serve(test::full_request(0));
  ASSERT_GT(full.stats.steps, 3u) << "chain too easy to measure early exit";
  QueryRequest req;
  req.source = 0;
  req.targets = {2};  // two hops from the source
  for (const int nw : {1, 4}) {
    set_num_workers(nw);
    const QueryResponse resp = engine.serve(req);
    EXPECT_EQ(resp.targets[0].dist, full.dist[2]);
    EXPECT_TRUE(resp.stats.early_exit) << "nw=" << nw;
    EXPECT_LT(resp.stats.steps, full.stats.steps) << "nw=" << nw;
  }

  // Same on the unit-weight chain without shortcuts.
  const Graph unit = gen::chain(400);
  const SsspEngine ue = raw_engine(unit, 4);
  const QueryResponse ufull = ue.serve(test::full_request(0));
  ASSERT_GT(ufull.stats.steps, 3u);
  QueryRequest ureq;
  ureq.source = 0;
  ureq.targets = {2};
  const QueryResponse uresp = ue.serve(ureq);
  EXPECT_EQ(uresp.targets[0].dist, ufull.dist[2]);
  EXPECT_TRUE(uresp.stats.early_exit);
  EXPECT_LT(uresp.stats.steps, ufull.stats.steps);
}

TEST(Serve, WantFullDistancesDisablesEarlyExitAndFillsBoth) {
  const Graph g = assign_uniform_weights(gen::chain(300), 5, 1, 50);
  PreprocessOptions opts;
  opts.rho = 8;
  opts.k = 3;  // keeps shortcut arcs on a graph this small
  const SsspEngine engine(g, opts);
  const QueryResponse full = engine.serve(test::full_request(0));

  QueryRequest req;
  req.source = 0;
  req.targets = {1, 2};
  req.want_full_distances = true;
  const QueryResponse resp = engine.serve(req);
  EXPECT_EQ(resp.dist, full.dist);  // the whole vector, bit-identical
  EXPECT_FALSE(resp.stats.early_exit);
  EXPECT_EQ(resp.stats.steps, full.stats.steps);  // exhaustive run
  EXPECT_EQ(resp.targets[0].dist, full.dist[1]);
  EXPECT_EQ(resp.targets[1].dist, full.dist[2]);
}

/// The path a full run from `source` gives `target` alone: a one-target
/// request with want_paths and want_full_distances.
std::vector<Vertex> full_run_path(const SsspEngine& engine, Vertex source,
                                  Vertex target) {
  QueryRequest req = test::full_request(source);
  req.targets = {target};
  req.want_paths = true;
  return engine.serve(req).targets[0].path;
}

TEST(Serve, PathsMatchSingleTargetServesOnFullRuns) {
  for (const auto& [name, g] : test::weighted_suite(7)) {
    PreprocessOptions opts;
    opts.rho = 12;
    opts.k = 2;
    const SsspEngine engine(g, opts);
    QueryRequest req;
    req.source = 0;
    req.targets = spread_targets(g, 4);
    req.want_paths = true;
    req.want_full_distances = true;  // exhaustive: closure sets identical
    const QueryResponse resp = engine.serve(req);
    for (const TargetResult& tr : resp.targets) {
      EXPECT_EQ(tr.path, full_run_path(engine, 0, tr.target)) << name;
    }
  }
}

TEST(Serve, ClosureWalkMatchesParentsFromDistancesOracle) {
  // serve(want_paths) walks extract_path_by_closure; pin multi- and
  // one-target serves against the INDEPENDENT reconstruction (full
  // parents_from_distances pass + extract_path) so a tie-break divergence
  // in the closure walk cannot slip by with both sides changing together.
  // Directed graph: the transpose actually differs from the graph.
  for (const auto& [name, g] : test::adversarial_suite(21)) {
    const SsspEngine engine = raw_engine(g);
    const QueryResponse full = engine.serve(test::full_request(1));
    const std::vector<Vertex> parent =
        parents_from_distances(g, g.transposed(), 1, full.dist);
    QueryRequest req;
    req.source = 1;
    req.targets = spread_targets(g, 4);
    req.want_paths = true;
    req.want_full_distances = true;  // exhaustive: oracle applies exactly
    const QueryResponse resp = engine.serve(req);
    for (const TargetResult& tr : resp.targets) {
      const std::vector<Vertex> oracle = tr.dist == kInfDist
                                             ? std::vector<Vertex>{}
                                             : extract_path(parent, tr.target);
      EXPECT_EQ(tr.path, oracle) << name << " target " << tr.target;
      EXPECT_EQ(full_run_path(engine, 1, tr.target), oracle) << name;
    }
  }
}

TEST(Serve, EarlyExitPathsAreGenuineShortestPaths) {
  // With early termination the tie-break may see fewer exact predecessors
  // than a full run, so paths need not be bit-identical — but they must
  // be real shortest paths of the ORIGINAL graph: right endpoints, only
  // original arcs, weights summing exactly to the distance.
  const Graph g = assign_uniform_weights(gen::grid2d(15, 14), 11, 1, 60);
  PreprocessOptions opts;
  opts.rho = 10;
  opts.k = 2;
  opts.heuristic = ShortcutHeuristic::kFull1Rho;  // plenty of shortcuts
  const SsspEngine engine(g, opts);
  QueryRequest req;
  req.source = 0;
  req.targets = {5, 40, 100};
  req.want_paths = true;
  const QueryResponse resp = engine.serve(req);
  for (const TargetResult& tr : resp.targets) {
    ASSERT_NE(tr.dist, kInfDist);
    ASSERT_GE(tr.path.size(), 2u);
    EXPECT_EQ(tr.path.front(), 0u);
    EXPECT_EQ(tr.path.back(), tr.target);
    EXPECT_EQ(test::path_weight(g, tr.path), tr.dist) << "target " << tr.target;
  }
}

TEST(Serve, BatchMatchesIndividualServesWithMixedRequests) {
  // The batch contract (SsspEngine::serve_batch): bit-identical to
  // serve() at one worker, which is how the batch runs each query at one
  // worker and on the request-parallel path (10 requests >= 3 or 8
  // workers). serve() at several workers runs the multi-target and full
  // requests on a team, so at nw > 1 a fresh serve() must match the
  // batch's distances only.
  WorkerGuard guard;
  const Graph g = assign_uniform_weights(gen::road_network(14, 14, 3), 9);
  PreprocessOptions opts;
  opts.rho = 12;
  opts.k = 2;
  const SsspEngine engine(g, opts);
  const Vertex n = g.num_vertices();

  // A deliberately heterogeneous batch: different sources, target counts,
  // and flag combinations in one vector.
  std::vector<QueryRequest> requests;
  for (std::size_t i = 0; i < 10; ++i) {
    QueryRequest req;
    req.source = static_cast<Vertex>((i * n) / 10);
    for (std::size_t t = 0; t <= i % 4; ++t) {
      req.targets.push_back(static_cast<Vertex>((t * n) / 5 + i));
    }
    req.want_paths = (i % 2 == 0);
    req.want_full_distances = (i % 3 == 0);
    requests.push_back(std::move(req));
  }

  std::vector<QueryResponse> ref;
  {
    const WorkerGuard one(1);
    QueryContext ctx;
    for (const QueryRequest& req : requests) {
      ref.push_back(engine.serve(req, ctx));
    }
  }

  for (const int nw : {1, 3, 8}) {
    set_num_workers(nw);
    const std::vector<QueryResponse> batch = engine.serve_batch(requests);
    ASSERT_EQ(batch.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(batch[i].source, ref[i].source);
      EXPECT_EQ(batch[i].dist, ref[i].dist) << "nw=" << nw << " req " << i;
      ASSERT_EQ(batch[i].targets.size(), ref[i].targets.size());
      for (std::size_t t = 0; t < ref[i].targets.size(); ++t) {
        EXPECT_EQ(batch[i].targets[t].dist, ref[i].targets[t].dist)
            << "nw=" << nw << " req " << i;
        EXPECT_EQ(batch[i].targets[t].path, ref[i].targets[t].path)
            << "nw=" << nw << " req " << i;
      }
      EXPECT_EQ(batch[i].stats.steps, ref[i].stats.steps) << "req " << i;
      EXPECT_EQ(batch[i].stats.settled, ref[i].stats.settled) << "req " << i;
      if (nw > 1) {
        const QueryResponse single = engine.serve(requests[i]);
        ASSERT_EQ(single.targets.size(), batch[i].targets.size());
        for (std::size_t t = 0; t < single.targets.size(); ++t) {
          EXPECT_EQ(single.targets[t].dist, batch[i].targets[t].dist)
              << "nw=" << nw << " req " << i;
        }
      }
    }
  }
}

TEST(Serve, SourceTargetAndDuplicateEdgeCases) {
  const Graph g = assign_uniform_weights(gen::grid2d(8, 8), 2, 1, 20);
  PreprocessOptions opts;
  opts.rho = 8;
  opts.k = 3;  // keeps shortcut arcs on a graph this small
  const SsspEngine engine(g, opts);

  // Target == source: distance 0, path is the single vertex.
  QueryRequest req;
  req.source = 5;
  req.targets = {5};
  req.want_paths = true;
  QueryResponse resp = engine.serve(req);
  EXPECT_TRUE(resp.stats.early_exit);  // nothing beyond the seed needed
  EXPECT_EQ(resp.targets[0].dist, 0u);
  EXPECT_EQ(resp.targets[0].path, std::vector<Vertex>{5});

  // Duplicate targets: each occurrence answered, same values.
  req.targets = {9, 9, 5};
  resp = engine.serve(req);
  ASSERT_EQ(resp.targets.size(), 3u);
  EXPECT_EQ(resp.targets[0].dist, resp.targets[1].dist);
  EXPECT_EQ(resp.targets[0].path, resp.targets[1].path);
  EXPECT_EQ(resp.targets[2].dist, 0u);

  // Empty targets without full distances: a stats-only probe.
  req.targets.clear();
  req.want_paths = false;
  resp = engine.serve(req);
  EXPECT_TRUE(resp.targets.empty());
  EXPECT_TRUE(resp.dist.empty());
  EXPECT_FALSE(resp.stats.early_exit);
  EXPECT_EQ(resp.stats.settled,
            engine.serve(test::full_request(5)).stats.settled);
}

TEST(Serve, UnreachableTargetIsInfiniteWithEmptyPath) {
  // half_directed_star-like: odd spokes point inward only, so they are
  // unreachable from the center.
  BuildOptions directed;
  directed.symmetrize = false;
  std::vector<EdgeTriple> edges;
  for (Vertex v = 1; v < 10; ++v) {
    if (v % 2 == 0) {
      edges.push_back({0, v, v});
    } else {
      edges.push_back({v, 0, v});
    }
  }
  const SsspEngine engine = raw_engine(build_graph(10, std::move(edges),
                                                   directed));
  QueryRequest req;
  req.source = 0;
  req.targets = {2, 3};  // 2 reachable, 3 not
  req.want_paths = true;
  const QueryResponse resp = engine.serve(req);
  EXPECT_EQ(resp.targets[0].dist, 2u);
  EXPECT_EQ(resp.targets[0].path, (std::vector<Vertex>{0, 2}));
  EXPECT_EQ(resp.targets[1].dist, kInfDist);
  EXPECT_TRUE(resp.targets[1].path.empty());
  // An unreachable target means the frontier drained: no early exit.
  EXPECT_FALSE(resp.stats.early_exit);
}

TEST(Serve, WarmContextAndResponseReuseStaysExact) {
  // One context + one response object across many targeted requests of
  // different shapes — values must match fresh serves every time.
  const Graph g = assign_uniform_weights(gen::road_network(12, 12, 5), 4);
  PreprocessOptions opts;
  opts.rho = 10;
  opts.k = 3;  // keeps shortcut arcs on a graph this small
  const SsspEngine engine(g, opts);
  QueryContext ctx;
  QueryResponse resp;
  for (Vertex s = 0; s < 20; ++s) {
    QueryRequest req;
    req.source = s;
    req.targets = spread_targets(g, 1 + s % 5);
    req.want_paths = (s % 2 == 0);
    engine.serve(req, ctx, resp);
    const QueryResponse fresh = engine.serve(req);
    ASSERT_EQ(resp.targets.size(), fresh.targets.size());
    for (std::size_t i = 0; i < fresh.targets.size(); ++i) {
      EXPECT_EQ(resp.targets[i].dist, fresh.targets[i].dist) << "s=" << s;
      EXPECT_EQ(resp.targets[i].path, fresh.targets[i].path) << "s=" << s;
    }
  }
}

TEST(Serve, EveryEntryPointBoundsChecksItsInputs) {
  // Every entry point — fresh, warm-context and batch; full and targeted
  // — must reject out-of-range vertices up front.
  const Graph g = assign_uniform_weights(gen::grid2d(6, 6), 1, 1, 9);
  PreprocessOptions opts;
  opts.rho = 6;
  const SsspEngine engine(g, opts);
  const Vertex n = g.num_vertices();
  QueryContext ctx;

  EXPECT_THROW(engine.serve(test::full_request(n)), std::invalid_argument);
  EXPECT_THROW(engine.serve(test::full_request(kNoVertex)),
               std::invalid_argument);
  EXPECT_THROW(engine.serve(test::full_request(n), ctx),
               std::invalid_argument);
  EXPECT_THROW(engine.serve_batch(test::full_requests({0, n})),
               std::invalid_argument);

  QueryRequest bad_source;
  bad_source.source = n;
  EXPECT_THROW(engine.serve(bad_source), std::invalid_argument);
  EXPECT_THROW(engine.serve_batch({bad_source}), std::invalid_argument);

  QueryRequest bad_target;
  bad_target.source = 0;
  bad_target.targets = {0, n};
  EXPECT_THROW(engine.serve(bad_target), std::invalid_argument);
  EXPECT_THROW(engine.serve_batch({bad_target}), std::invalid_argument);

  // A default-constructed request carries source == kNoVertex.
  EXPECT_THROW(engine.serve(QueryRequest{}), std::invalid_argument);

  EXPECT_TRUE(engine.serve_batch({}).empty());
}

TEST(Serve, TouchedStatCountsFirstTouchesExactly) {
  // The O(touched)-reset bookkeeping (PR 6): every engine records each
  // vertex whose distance leaves kInfDist exactly once. On an exhaustive
  // run over a connected graph that is every vertex; on an early-exit run
  // it is at most that — and the count is identical across worker counts
  // because the touched set is schedule-independent (the per-step settled
  // frontiers are deterministic, Theorem 3.1).
  WorkerGuard guard;
  const Graph g = assign_uniform_weights(gen::road_network(12, 12, 5), 4);
  PreprocessOptions opts;
  opts.rho = 12;
  opts.k = 2;
  const SsspEngine engine(g, opts);
  const Vertex n = g.num_vertices();

  QueryRequest full;
  full.source = 3;
  full.want_full_distances = true;

  QueryRequest targeted;
  targeted.source = 3;
  targeted.targets = {4};  // a near target: early exit leaves most untouched

  for (const int nw : {1, 4}) {
    set_num_workers(nw);
    QueryResponse r = engine.serve(full);
    std::size_t reachable = 0;
    for (const Dist d : r.dist) reachable += (d != kInfDist) ? 1 : 0;
    EXPECT_EQ(r.stats.touched, reachable) << "nw=" << nw;

    const QueryResponse t = engine.serve(targeted);
    EXPECT_GE(t.stats.touched, 2u);  // source + target at minimum
    EXPECT_LE(t.stats.touched, static_cast<std::size_t>(n));
    EXPECT_LT(t.stats.touched, reachable)
        << "early exit should leave most of the graph untouched";
  }
}

TEST(Serve, TouchedResetRestoresContextInvariantAcrossRequests) {
  // After a targeted serve, reset_touched() must restore the all-infinite
  // invariant EXACTLY — any missed entry would leak a stale finite
  // distance into a later request from a different source. Alternate
  // sources over one warm context and check every answer.
  const Graph g = assign_uniform_weights(gen::grid2d(9, 9), 11, 1, 50);
  PreprocessOptions opts;
  opts.rho = 8;
  opts.k = 2;
  const SsspEngine engine(g, opts);
  const Vertex n = g.num_vertices();

  QueryContext ctx;
  QueryResponse resp;
  for (std::uint64_t i = 0; i < 24; ++i) {
    QueryRequest req;
    req.source = static_cast<Vertex>((i * 29) % n);
    req.targets = {static_cast<Vertex>((i * 13 + 1) % n),
                   static_cast<Vertex>((i * 41 + 7) % n)};
    engine.serve(req, ctx, resp);
    const QueryResponse ref = engine.serve(test::full_request(req.source));
    for (const TargetResult& tr : resp.targets) {
      ASSERT_EQ(tr.dist, ref.dist[tr.target]) << "request " << i;
    }
  }
}

TEST(Serve, ConcurrentServeBatchesStayExact) {
  // N threads hammer serve_batch on ONE const engine, each over its own
  // pool as concurrent direct callers do, and must stay exact. The engine
  // holds no mutable state, so the threads share only read-only graph
  // data: CI's TSan leg runs this test, where any state left in the
  // engine shows as a race (run it at RS_THREADS=8 to shake scheduling).
  const Graph g = assign_uniform_weights(gen::road_network(13, 13, 2), 6);
  PreprocessOptions opts;
  opts.rho = 12;
  opts.k = 2;
  const SsspEngine engine(g, opts);
  const Vertex n = g.num_vertices();

  // Four distinct batches (mixed sources/targets), reference
  // answers computed single-threaded up front.
  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  std::vector<std::vector<QueryRequest>> batches(kThreads);
  std::vector<std::vector<QueryResponse>> want(kThreads);
  for (int b = 0; b < kThreads; ++b) {
    for (std::uint64_t i = 0; i < 12; ++i) {
      QueryRequest req;
      req.source = static_cast<Vertex>((b * 97 + i * 31) % n);
      req.targets = {static_cast<Vertex>((b * 17 + i * 7) % n),
                     static_cast<Vertex>((b + i * 61 + 3) % n)};
      batches[b].push_back(std::move(req));
    }
    for (const QueryRequest& req : batches[b]) {
      want[b].push_back(engine.serve(req));
    }
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int b = 0; b < kThreads; ++b) {
    threads.emplace_back([&, b] {
      WorkerPool<QueryContext> pool;
      for (int round = 0; round < kRounds; ++round) {
        const std::vector<QueryResponse> got =
            engine.serve_batch(batches[b], pool);
        for (std::size_t i = 0; i < got.size(); ++i) {
          for (std::size_t t = 0; t < got[i].targets.size(); ++t) {
            if (got[i].targets[t].dist != want[b][i].targets[t].dist) {
              mismatches.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Serve, ResponsesAreEpochStampedAndReplaceBumps) {
  const Graph g1 =
      assign_uniform_weights(gen::road_network(10, 10, 4), 5, 1, 100);
  PreprocessOptions opts;
  opts.rho = 12;
  opts.k = 2;
  const SsspEngine engine(g1, opts);
  ASSERT_EQ(engine.graph_epoch(), 1u);

  QueryRequest req;
  req.source = 3;
  req.targets = spread_targets(g1, 3);
  const QueryResponse before = engine.serve(req);
  EXPECT_EQ(before.graph_epoch, 1u);
  EXPECT_FALSE(before.served_from_cache);  // the engine never serves rows

  // next_epoch(): same vertex set, different weights — the successor's
  // epoch bumps and it answers with the new graph's distances, while the
  // prior snapshot keeps its own epoch.
  const Graph g2 =
      assign_uniform_weights(gen::road_network(10, 10, 4), 9, 1, 100);
  const SsspEngine next =
      SsspEngine::next_epoch(engine, g2, preprocess(g2, opts));
  EXPECT_EQ(next.graph_epoch(), 2u);
  EXPECT_EQ(engine.graph_epoch(), 1u);

  const QueryResponse after = next.serve(req);
  EXPECT_EQ(after.graph_epoch, 2u);
  const std::vector<Dist> truth = dijkstra(g2, req.source);
  for (const TargetResult& tr : after.targets) {
    EXPECT_EQ(tr.dist, truth[tr.target]);
  }

  // Copies serve the same preprocessing, so they keep the epoch.
  const SsspEngine copy(next);
  EXPECT_EQ(copy.graph_epoch(), 2u);
}

TEST(Serve, TopKRequestsAreValidated) {
  const SsspEngine engine =
      raw_engine(assign_uniform_weights(gen::chain(30), 3, 1, 10));

  QueryRequest req;
  req.kind = RequestKind::kTopK;
  req.source = 0;
  req.k = 0;  // k >= 1 required
  EXPECT_THROW(engine.serve(req), std::invalid_argument);

  req.k = 3;
  req.targets = {5};  // top-k takes no target list
  EXPECT_THROW(engine.serve(req), std::invalid_argument);

  req.targets.clear();
  const QueryResponse resp = engine.serve(req);
  EXPECT_EQ(resp.targets.size(), 3u);
  EXPECT_EQ(resp.targets[0].target, 0u);  // the source is its own nearest
  EXPECT_EQ(resp.targets[0].dist, 0u);
}

TEST(TopK, MatchesSortedDijkstraPrefix) {
  // The top-k exit reads the settled count summed over every worker of
  // the run, and the answer comes from every worker's first-touch list.
  WorkerGuard guard;
  for (const auto& c : test::weighted_suite()) {
    const SsspEngine engine = raw_engine(c.graph);
    const Vertex n = c.graph.num_vertices();
    QueryContext ctx;
    for (const Vertex s : spread_sources(c.graph, 3)) {
      const std::vector<Dist> truth = dijkstra(c.graph, s);
      std::vector<std::pair<Dist, Vertex>> order;
      for (Vertex v = 0; v < n; ++v) {
        if (truth[v] < kInfDist) order.push_back({truth[v], v});
      }
      std::sort(order.begin(), order.end());

      for (const int workers : {1, 3, 8}) {
        set_num_workers(workers);
        for (const std::uint32_t k :
             {std::uint32_t{1}, std::uint32_t{5}, std::uint32_t{32},
              static_cast<std::uint32_t>(n + 7)}) {
          QueryRequest req;
          req.source = s;
          req.kind = RequestKind::kTopK;
          req.k = k;
          const QueryResponse resp = engine.serve(req, ctx);
          const std::size_t m = std::min<std::size_t>(k, order.size());
          ASSERT_EQ(resp.targets.size(), m)
              << c.name << " s=" << s << " k=" << k << " nw=" << workers;
          for (std::size_t i = 0; i < m; ++i) {
            ASSERT_EQ(resp.targets[i].target, order[i].second);
            ASSERT_EQ(resp.targets[i].dist, order[i].first);
          }
        }
      }
    }
  }
}

TEST(TopK, UnitWeightGridWithTies) {
  const Graph g = assign_unit_weights(gen::grid2d(14, 13));
  const SsspEngine engine = raw_engine(g, /*r=*/4);
  const std::vector<Dist> truth = dijkstra(g, 7);
  std::vector<std::pair<Dist, Vertex>> order;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    order.push_back({truth[v], v});
  }
  std::sort(order.begin(), order.end());

  QueryRequest req;
  req.source = 7;
  req.kind = RequestKind::kTopK;
  req.k = 40;
  QueryContext ctx;
  const QueryResponse resp = engine.serve(req, ctx);
  ASSERT_EQ(resp.targets.size(), 40u);
  for (std::size_t i = 0; i < 40; ++i) {
    ASSERT_EQ(resp.targets[i].target, order[i].second);
    ASSERT_EQ(resp.targets[i].dist, order[i].first);
  }
}

// --- One target on a shortcut engine: two searches that meet --------------

/// Every route a one-target request can take, each of which runs the two
/// searches on one thread: a one-worker engine, serve() from the one
/// thread a `single` construct picks in an active two-thread OpenMP
/// region at the default worker count, serve_batch at three workers
/// (request-parallel, one query per worker: needs at least three
/// requests), serve() on a default context at four workers, and
/// serve_batch at four workers one request at a time (a batch narrower
/// than the team, as a server's). One response list per route, in request
/// order.
std::vector<std::vector<QueryResponse>> serve_every_route(
    const SsspEngine& engine, const std::vector<QueryRequest>& requests) {
  WorkerGuard guard;
  std::vector<std::vector<QueryResponse>> out(5);
  set_num_workers(1);
  for (const QueryRequest& req : requests) out[0].push_back(engine.serve(req));
  set_num_workers(guard.before());
  QueryContext ctx;
#pragma omp parallel num_threads(2)
#pragma omp single
  for (const QueryRequest& req : requests) {
    out[1].push_back(engine.serve(req, ctx));
  }
  set_num_workers(3);
  out[2] = engine.serve_batch(requests);
  set_num_workers(4);
  QueryContext parallel;
  for (const QueryRequest& req : requests) {
    out[3].push_back(engine.serve(req, parallel));
    out[4].push_back(std::move(engine.serve_batch({req}).at(0)));
  }
  return out;
}

/// Checks a one-target answer against Dijkstra's row `truth` from the
/// request's source: the distance, a genuine shortest path of the original
/// graph `g` when paths were asked for, and Theorem 3.2's k + 2 bound.
void expect_exact_one_target(const Graph& g, const QueryRequest& req,
                             const QueryResponse& resp,
                             const std::vector<Dist>& truth, Vertex k,
                             const std::string& what) {
  ASSERT_EQ(resp.targets.size(), 1u) << what;
  const TargetResult& tr = resp.targets[0];
  const Vertex t = req.targets[0];
  EXPECT_EQ(tr.target, t) << what;
  EXPECT_EQ(tr.dist, truth[t]) << what;
  EXPECT_LE(resp.stats.max_substeps_in_step, k + 2u) << what;
  if (!req.want_paths || tr.dist == kInfDist) {
    EXPECT_TRUE(tr.path.empty()) << what;
    return;
  }
  ASSERT_FALSE(tr.path.empty()) << what;
  EXPECT_EQ(tr.path.front(), req.source) << what;
  EXPECT_EQ(tr.path.back(), t) << what;
  EXPECT_EQ(test::path_weight(g, tr.path), tr.dist) << what;
}

QueryRequest one_target(Vertex s, Vertex t, bool want_paths) {
  QueryRequest req;
  req.source = s;
  req.targets = {t};
  req.want_paths = want_paths;
  return req;
}

/// Spread (s, t) pairs, the two ends of the id range, s == t, and a target
/// adjacent to s; each with and without paths.
std::vector<QueryRequest> one_target_requests(const Graph& g) {
  const Vertex n = g.num_vertices();
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (Vertex i = 0; i < 5; ++i) {
    pairs.push_back({(i * 37 + 1) % n, (i * 53 + n / 2) % n});
  }
  pairs.push_back({0, n - 1});
  pairs.push_back({n / 3, n / 3});
  const Vertex s = n / 5;
  pairs.push_back({s, g.arc_target(g.first_arc(s))});
  std::vector<QueryRequest> out;
  for (const auto& [from, to] : pairs) {
    out.push_back(one_target(from, to, true));
    out.push_back(one_target(from, to, false));
  }
  return out;
}

/// Serves one_target_requests(g) on every route and checks each answer
/// against Dijkstra.
void expect_every_route_exact(const std::string& name, const Graph& g,
                              const PreprocessOptions& opts) {
  const SsspEngine engine(g, opts);
  const std::vector<QueryRequest> requests = one_target_requests(g);
  const auto routes = serve_every_route(engine, requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::vector<Dist> truth = dijkstra(g, requests[i].source);
    for (std::size_t r = 0; r < routes.size(); ++r) {
      const std::string what = name + " route " + std::to_string(r) +
                               " request " + std::to_string(i);
      expect_exact_one_target(g, requests[i], routes[r][i], truth, opts.k,
                              what);
      // Every route runs the same sequential code.
      EXPECT_EQ(routes[r][i].stats.settled, routes[0][i].stats.settled)
          << what;
      EXPECT_EQ(routes[r][i].stats.substeps, routes[0][i].stats.substeps)
          << what;
      EXPECT_EQ(routes[r][i].targets[0].path, routes[0][i].targets[0].path)
          << what;
    }
  }
}

TEST(Bidirectional, MatchesDijkstraOnWeightedSuite) {
  for (const auto& [name, g] : test::weighted_suite(29)) {
    PreprocessOptions opts;
    opts.rho = 10;
    opts.k = 2;
    expect_every_route_exact(name, g, opts);
  }
}

TEST(Bidirectional, MatchesDijkstraOnUnitWeightSuite) {
  // Unit weights tie everywhere; the default heuristic (kDP).
  for (const auto& [name, g] : test::unweighted_suite(31)) {
    PreprocessOptions opts;
    opts.rho = 8;
    opts.k = 3;  // keeps shortcut arcs on a graph this small
    expect_every_route_exact(name, g, opts);
  }
}

TEST(Bidirectional, UnreachableTargetOnTwoComponents) {
  // A weighted grid and a weighted chain side by side, no arc between
  // them: a target in the other component is unreachable, and the run
  // ends when the smaller side's frontier drains, not by meeting.
  const Graph grid = assign_uniform_weights(gen::grid2d(10, 9), 3, 1, 40);
  const Graph chain = assign_uniform_weights(gen::chain(30), 4, 1, 40);
  const Vertex split = grid.num_vertices();
  std::vector<EdgeTriple> edges = grid.to_triples();
  for (const EdgeTriple& e : chain.to_triples()) {
    edges.push_back({e.u + split, e.v + split, e.w});
  }
  const Graph g = build_graph(split + chain.num_vertices(), std::move(edges));
  PreprocessOptions opts;
  opts.rho = 8;
  opts.k = 2;
  const SsspEngine engine(g, opts);

  const Vertex last = g.num_vertices() - 1;
  std::vector<QueryRequest> requests;
  for (const bool paths : {true, false}) {
    requests.push_back(one_target(3, split + 7, paths));  // grid -> chain
    requests.push_back(one_target(last, 40, paths));      // chain -> grid
    requests.push_back(one_target(5, split - 2, paths));  // within the grid
    requests.push_back(one_target(split, last, paths));   // within the chain
    requests.push_back(one_target(last, last, paths));    // s == t
  }
  const auto routes = serve_every_route(engine, requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::vector<Dist> truth = dijkstra(g, requests[i].source);
    const bool unreachable = truth[requests[i].targets[0]] == kInfDist;
    EXPECT_EQ(unreachable, i % 5 < 2) << "request " << i;
    for (std::size_t r = 0; r < routes.size(); ++r) {
      const QueryResponse& resp = routes[r][i];
      const std::string what =
          "route " + std::to_string(r) + " request " + std::to_string(i);
      expect_exact_one_target(g, requests[i], resp, truth, opts.k, what);
      if (unreachable) {
        EXPECT_EQ(resp.targets[0].dist, kInfDist) << what;
        EXPECT_TRUE(resp.targets[0].path.empty()) << what;
        EXPECT_FALSE(resp.stats.early_exit) << what;
      }
    }
  }
}

TEST(Bidirectional, SourceEqualsTargetAndAdjacentTarget) {
  WorkerGuard guard;
  set_num_workers(1);
  const Graph g = assign_uniform_weights(gen::grid2d(8, 8), 2, 1, 20);
  PreprocessOptions opts;
  opts.rho = 8;
  opts.k = 3;  // keeps shortcut arcs on a graph this small
  const SsspEngine engine(g, opts);

  QueryResponse resp = engine.serve(one_target(5, 5, true));
  EXPECT_EQ(resp.targets[0].dist, 0u);
  EXPECT_EQ(resp.targets[0].path, std::vector<Vertex>{5});
  EXPECT_TRUE(resp.stats.early_exit);  // nothing beyond the seeds needed
  EXPECT_EQ(resp.stats.steps, 0u);

  // Vertex 6 is 5's grid neighbour: the backward seed scans the arc
  // between them with 5 already settled forward.
  const std::vector<Dist> truth = dijkstra(g, 5);
  resp = engine.serve(one_target(5, 6, true));
  expect_exact_one_target(g, one_target(5, 6, true), resp, truth, opts.k,
                          "adjacent");
  EXPECT_TRUE(resp.stats.early_exit);
}

TEST(Bidirectional, EarlyExitWhenTheSearchesMeet) {
  // Two ends of a grid's middle row: both frontiers grow with their radii,
  // so the searches meet between the ends long before either drains.
  WorkerGuard guard;
  set_num_workers(1);
  const Graph g = assign_uniform_weights(gen::grid2d(20, 20), 3, 1, 100);
  PreprocessOptions opts;
  opts.rho = 8;
  opts.k = 2;
  const SsspEngine engine(g, opts);
  const QueryRequest req = one_target(10 * 20 + 2, 10 * 20 + 17, true);
  const QueryResponse full = engine.serve(test::full_request(req.source));
  const QueryResponse resp = engine.serve(req);
  expect_exact_one_target(g, req, resp, full.dist, opts.k, "grid");
  EXPECT_TRUE(resp.stats.early_exit);
}

TEST(Bidirectional, WarmContextAlternatingSourcesStaysExact) {
  // One warm one-worker context across one-target, two-target and full
  // requests from alternating sources: after every request reset_touched()
  // (or the full copy) must have restored BOTH searches to all-infinite,
  // or a stale label would leak into the next request.
  const WorkerGuard one(1);
  const Graph g = assign_uniform_weights(gen::road_network(12, 12, 7), 8);
  PreprocessOptions opts;
  opts.rho = 10;
  opts.k = 2;
  const SsspEngine engine(g, opts);
  const Vertex n = g.num_vertices();
  QueryContext ctx;
  QueryResponse resp;
  for (std::uint64_t i = 0; i < 36; ++i) {
    const auto s = static_cast<Vertex>((i * 29) % n);
    QueryRequest req = one_target(s, static_cast<Vertex>((i * 41 + 7) % n),
                                  i % 2 == 0);
    if (i % 6 == 5) req.targets.push_back(static_cast<Vertex>((i * 13) % n));
    if (i % 9 == 8) req.want_full_distances = true;
    engine.serve(req, ctx, resp);
    const std::vector<Dist> truth = dijkstra(g, s);
    for (const TargetResult& tr : resp.targets) {
      ASSERT_EQ(tr.dist, truth[tr.target]) << "request " << i;
      if (req.want_paths && !tr.path.empty()) {
        EXPECT_EQ(test::path_weight(g, tr.path), tr.dist) << "request " << i;
      }
    }
    std::size_t stale = 0;
    for (Vertex v = 0; v < n; ++v) {
      stale += ctx.search().read_dist(v) != kInfDist ? 1 : 0;
      stale += ctx.backward().read_dist(v) != kInfDist ? 1 : 0;
    }
    ASSERT_EQ(stale, 0u) << "request " << i;
  }
}

TEST(Bidirectional, MeetingArcIsAnOriginalArcSettledOnBothSides) {
  // The contract the path assembly relies on: radius_stepping_meet
  // records an ORIGINAL arc (x, y) with x settled forward and y settled
  // backward, both at their exact distances, and d(s, x) + w + d(y, t)
  // equal to the answer.
  for (const auto& [name, g] : test::weighted_suite(37)) {
    PreprocessOptions opts;
    opts.rho = 10;
    opts.k = 2;
    const PreprocessResult pre = preprocess(g, opts);
    const Vertex n = g.num_vertices();
    QueryContext ctx;
    for (Vertex i = 0; i < 12; ++i) {
      const Vertex s = (i * 31 + 2) % n;
      const Vertex t = (i * 71 + n / 3) % n;
      const std::vector<Dist> from_s = dijkstra(g, s);
      const std::vector<Dist> to_t = dijkstra(g, t);  // symmetric graph
      RunStats stats;
      const Meeting m =
          radius_stepping_meet(pre.graph, s, t, pre.radius, ctx, &stats);
      const std::string what = name + " s=" + std::to_string(s) +
                               " t=" + std::to_string(t);
      EXPECT_EQ(m.dist, from_s[t]) << what;
      EXPECT_LE(stats.max_substeps_in_step, opts.k + 2u) << what;
      if (s == t) {
        EXPECT_EQ(m.forward, s) << what;
        EXPECT_EQ(m.backward, t) << what;
      } else {
        Dist w = kInfDist;
        for (EdgeId e = g.first_arc(m.forward); e < g.last_arc(m.forward);
             ++e) {
          if (g.arc_target(e) == m.backward) {
            w = std::min(w, static_cast<Dist>(g.arc_weight(e)));
          }
        }
        ASSERT_NE(w, kInfDist) << what << ": not an original arc";
        EXPECT_TRUE(ctx.search().is_settled(m.forward)) << what;
        EXPECT_TRUE(ctx.backward().is_settled(m.backward)) << what;
        EXPECT_EQ(ctx.search().read_dist(m.forward), from_s[m.forward])
            << what;
        EXPECT_EQ(ctx.backward().read_dist(m.backward), to_t[m.backward])
            << what;
        EXPECT_EQ(from_s[m.forward] + w + to_t[m.backward], m.dist) << what;
      }
      ctx.reset_touched();
    }
  }
}

/// Symmetric graphs whose shortest paths cross zero-weight arcs: one at
/// the source, a pocket that a smallest-id predecessor walks round in a
/// cycle (0 -> 4 enters it at 2, whose smaller neighbour 1 leads back to
/// 2 or 3), and the same pocket without the arc 1-3, where a walk that
/// only avoids revisiting dead-ends at 1.
std::vector<test::GraphCase> zero_weight_graphs() {
  std::vector<test::GraphCase> out(3);
  out[0].name = "zero arc at the source";
  out[0].graph = build_graph(3, {{0, 1, 0}, {1, 2, 5}});
  out[1].name = "zero-weight pocket";
  out[1].graph =
      build_graph(5, {{0, 3, 1}, {3, 2, 0}, {2, 1, 0}, {1, 3, 0}, {2, 4, 5}});
  out[2].name = "zero-weight dead end";
  out[2].graph = build_graph(5, {{0, 3, 1}, {3, 2, 0}, {2, 1, 0}, {2, 4, 5}});
  return out;
}

TEST(Serve, PathsCrossZeroWeightArcsOnEveryRoute) {
  // Every (s, t) pair with a path, on a shortcut and a kNone engine: the
  // single search at four workers (asked for t twice, so a shortcut
  // engine runs it too), then every route of the one-target request,
  // where a shortcut engine meets a second search from the target. Each
  // path runs from s to t over original arcs and sums to Dijkstra's
  // distance.
  WorkerGuard guard;
  for (const auto& [name, g] : zero_weight_graphs()) {
    std::vector<QueryRequest> requests;
    for (Vertex s = 0; s < g.num_vertices(); ++s) {
      for (Vertex t = 0; t < g.num_vertices(); ++t) {
        requests.push_back(one_target(s, t, true));
      }
    }
    for (const ShortcutHeuristic h :
         {ShortcutHeuristic::kDP, ShortcutHeuristic::kNone}) {
      PreprocessOptions opts;
      opts.rho = 2;
      opts.k = 2;
      opts.heuristic = h;
      const SsspEngine engine(g, opts);
      set_num_workers(4);
      std::vector<std::vector<QueryResponse>> routes(1);
      for (QueryRequest req : requests) {
        req.targets.push_back(req.targets[0]);
        routes[0].push_back(engine.serve(req));
      }
      for (auto& route : serve_every_route(engine, requests)) {
        routes.push_back(std::move(route));
      }
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const Vertex s = requests[i].source;
        const Vertex t = requests[i].targets[0];
        const Dist truth = dijkstra(g, s)[t];
        for (std::size_t r = 0; r < routes.size(); ++r) {
          const std::string what = name + " " + to_string(h) + " route " +
                                   std::to_string(r) + " request " +
                                   std::to_string(i);
          for (const TargetResult& tr : routes[r][i].targets) {
            EXPECT_EQ(tr.dist, truth) << what;
            ASSERT_FALSE(tr.path.empty()) << what;
            EXPECT_EQ(tr.path.front(), s) << what;
            EXPECT_EQ(tr.path.back(), t) << what;
            EXPECT_EQ(test::path_weight(g, tr.path), truth) << what;
          }
        }
      }
    }
  }
}

TEST(Serve, ShortcutEnginePathsEqualTheTransposedWalk) {
  // A shortcut engine walks its symmetric original graph's own arcs for
  // paths; the walk over the transpose must give the same vertices. The
  // single search (four workers, exhaustive, so the response carries the
  // distances walked) and the meet (one worker, replayed on a context of
  // its own).
  WorkerGuard guard;
  for (const auto& [name, g] : test::weighted_suite(43)) {
    PreprocessOptions opts;
    opts.rho = 10;
    opts.k = 2;
    const SsspEngine engine(g, opts);
    const PreprocessResult& pre = engine.preprocessing();
    const Graph tg = g.transposed();
    const Vertex n = g.num_vertices();
    std::vector<Vertex> expected;
    for (Vertex i = 0; i < 6; ++i) {
      const Vertex s = (i * 31 + 3) % n;
      const Vertex t = (i * 59 + n / 2) % n;
      const std::string what =
          name + " s=" + std::to_string(s) + " t=" + std::to_string(t);

      set_num_workers(4);
      QueryRequest req = test::full_request(s);
      req.targets = {t, (t + n / 3) % n};
      req.want_paths = true;
      const QueryResponse all = engine.serve(req);
      const auto all_dist = [&all](Vertex v) { return all.dist[v]; };
      for (const TargetResult& tr : all.targets) {
        extract_path_by_closure(tg, s, tr.target, all_dist, expected);
        EXPECT_EQ(tr.path, expected) << what << " single search";
      }

      set_num_workers(1);
      const QueryResponse met = engine.serve(one_target(s, t, true));
      QueryContext ctx;
      const Meeting m = radius_stepping_meet(pre.graph, s, t, pre.radius, ctx);
      expected.clear();
      if (m.dist != kInfDist) {
        const auto fwd = [&ctx](Vertex v) { return ctx.search().read_dist(v); };
        const auto bwd = [&ctx](Vertex v) {
          return ctx.backward().read_dist(v);
        };
        append_closure_walk(tg, m.forward, s, fwd, expected);
        std::reverse(expected.begin(), expected.end());
        if (m.forward == m.backward) expected.pop_back();
        append_closure_walk(tg, m.backward, t, bwd, expected);
      }
      EXPECT_EQ(met.targets[0].path, expected) << what << " meet";
    }
  }
}

}  // namespace
}  // namespace rs
