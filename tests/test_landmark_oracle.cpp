// The landmark (ALT) oracle contract (serve/landmark_oracle.hpp) and the
// top-k request type it shares the early-exit machinery with:
//
//  * admissibility — every bound the oracle hands out is a true lower
//    bound on d(s, t), checked against a Dijkstra oracle over the whole
//    weighted suite (one-sided AND mirrored form; the suite's graphs are
//    symmetric) and the adversarial directed suite (one-sided only — the
//    mirrored form is unsound there and must stay opt-in);
//  * exactness under assistance — an ALT-annotated targeted serve returns
//    distances BIT-IDENTICAL to the plain serve in at most as many steps,
//    across worker counts (lower-bound exits must be invisible in the
//    answers);
//  * top-k — kTopK responses equal the sorted (dist, vertex) prefix of a
//    full Dijkstra run, across both engines, k regimes, and disconnected
//    graphs (fewer than k reachable);
//  * epoch discipline — a next_epoch() successor invalidates the oracle;
//    rebuild() revalidates it; annotate() touches only early-terminating
//    targeted requests.
//  * persistence — save()/load() round-trips landmarks + rows (a restart
//    skips `count` full SSSP rebuilds); corrupt or truncated input fails
//    as a clean parse error behind bounds-checked header counts, never
//    as an allocation bomb.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baseline/dijkstra.hpp"
#include "core/engine.hpp"
#include "core/radii.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "parallel/primitives.hpp"
#include "serve/landmark_oracle.hpp"
#include "shortcut/shortcut.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

using serve::LandmarkOptions;
using serve::LandmarkOracle;

/// Restores the global worker count on scope exit.
struct WorkerGuard {
  int before = num_workers();
  ~WorkerGuard() { set_num_workers(before); }
};

/// Engine wrapper that skips preprocessing (constant radii, no shortcuts)
/// so directed/multigraph inputs stay exactly as built.
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

void expect_admissible(const Graph& g, const LandmarkOracle& oracle,
                       const char* name) {
  for (const Vertex s : spread_sources(g, 4)) {
    const std::vector<Dist> truth = dijkstra(g, s);
    ASSERT_EQ(oracle.lower_bound(s, s), 0u) << name;
    for (Vertex t = 0; t < g.num_vertices(); ++t) {
      ASSERT_LE(oracle.lower_bound(s, t), truth[t])
          << name << " s=" << s << " t=" << t;
    }
  }
}

TEST(LandmarkOracle, BoundsAdmissibleOnWeightedSuite) {
  for (const auto& c : test::weighted_suite()) {
    const SsspEngine engine = raw_engine(c.graph);
    for (const bool symmetric : {false, true}) {
      // The suite's graphs are undirected, so the mirrored bound is sound
      // here — and must still never exceed the true distance.
      LandmarkOptions opts;
      opts.count = 4;
      opts.assume_symmetric = symmetric;
      const LandmarkOracle oracle(engine, opts);
      ASSERT_EQ(oracle.landmarks().size(),
                std::min<std::size_t>(4, c.graph.num_vertices()));
      expect_admissible(c.graph, oracle, c.name.c_str());
    }
  }
}

TEST(LandmarkOracle, BoundsAdmissibleOnAdversarialDirectedSuite) {
  // Directed arcs, self-loops, parallel arcs, asymmetric reachability:
  // the one-sided bound (the default) must stay admissible through all
  // of it — including d(L, t) == inf proving t unreachable from s.
  for (const auto& c : test::adversarial_suite()) {
    const SsspEngine engine = raw_engine(c.graph);
    LandmarkOptions opts;
    opts.count = 4;
    const LandmarkOracle oracle(engine, opts);
    expect_admissible(c.graph, oracle, c.name.c_str());
  }
}

TEST(LandmarkOracle, AssistedServeBitIdenticalAcrossEnginesAndWorkers) {
  const Graph g = assign_uniform_weights(gen::road_network(15, 15, 2), 11,
                                         1, 100);
  PreprocessOptions popts;
  popts.rho = 16;
  popts.k = 2;
  const SsspEngine engine(g, popts);
  LandmarkOptions lopts;
  lopts.count = 6;
  lopts.assume_symmetric = true;  // road networks are undirected
  const LandmarkOracle oracle(engine, lopts);
  ASSERT_TRUE(oracle.valid_for(engine));

  WorkerGuard guard;
  const Vertex n = g.num_vertices();
  for (const int workers : {1, 3, 8}) {
    set_num_workers(workers);
    QueryContext ctx;
    for (const Vertex s : spread_sources(g, 5)) {
      QueryRequest plain;
      plain.source = s;
      plain.targets = {static_cast<Vertex>((s + n / 2) % n),
                       static_cast<Vertex>((s + 17) % n),
                       static_cast<Vertex>(n - 1 - s)};
      QueryRequest assisted = plain;
      oracle.annotate(assisted);
      ASSERT_EQ(assisted.target_lower_bounds.size(), assisted.targets.size());

      const QueryResponse want = engine.serve(plain, ctx);
      const QueryResponse got = engine.serve(assisted, ctx);
      ASSERT_EQ(got.targets.size(), want.targets.size());
      for (std::size_t i = 0; i < want.targets.size(); ++i) {
        ASSERT_EQ(got.targets[i].target, want.targets[i].target);
        ASSERT_EQ(got.targets[i].dist, want.targets[i].dist)
            << "workers=" << workers << " s=" << s;
      }
      // A bound only ever ADDS early-exit opportunities.
      EXPECT_LE(got.stats.steps, want.stats.steps);
    }
  }
}

TEST(LandmarkOracle, TightBoundTriggersEarlyExit) {
  // On a chain with the far end as a target, the oracle's periphery
  // landmarks make the bound exact, so the lower-bound exit must fire and
  // cut steps versus the plain serve — the mechanism, observed.
  const Graph g = assign_uniform_weights(gen::chain(200), 13, 1, 100);
  const SsspEngine engine = raw_engine(g, /*r=*/25);
  LandmarkOptions lopts;
  lopts.count = 2;
  lopts.assume_symmetric = true;
  const LandmarkOracle oracle(engine, lopts);

  QueryRequest plain;
  plain.source = 0;
  plain.targets = {199};
  QueryRequest assisted = plain;
  oracle.annotate(assisted);

  QueryContext ctx;
  const QueryResponse want = engine.serve(plain, ctx);
  const QueryResponse got = engine.serve(assisted, ctx);
  ASSERT_EQ(got.targets[0].dist, want.targets[0].dist);
  EXPECT_EQ(got.lower_bound_exits, 1u);
  EXPECT_LT(got.stats.steps, want.stats.steps);
}

TEST(LandmarkOracle, TopKMatchesSortedDijkstraPrefix) {
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

TEST(LandmarkOracle, TopKUnweightedEngine) {
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
  req.engine = QueryEngine::kUnweighted;
  QueryContext ctx;
  const QueryResponse resp = engine.serve(req, ctx);
  ASSERT_EQ(resp.targets.size(), 40u);
  for (std::size_t i = 0; i < 40; ++i) {
    ASSERT_EQ(resp.targets[i].target, order[i].second);
    ASSERT_EQ(resp.targets[i].dist, order[i].first);
  }
}

TEST(LandmarkOracle, ReplaceInvalidatesAndRebuildRevalidates) {
  const Graph g1 =
      assign_uniform_weights(gen::road_network(10, 10, 5), 5, 1, 100);
  PreprocessOptions popts;
  popts.rho = 12;
  popts.k = 2;
  const SsspEngine engine(g1, popts);
  LandmarkOracle oracle(engine, {});
  ASSERT_TRUE(oracle.valid_for(engine));

  const Graph g2 =
      assign_uniform_weights(gen::road_network(10, 10, 5), 6, 1, 100);
  const SsspEngine next =
      SsspEngine::next_epoch(engine, g2, preprocess(g2, popts));
  EXPECT_FALSE(oracle.valid_for(next));

  oracle.rebuild(next);
  EXPECT_TRUE(oracle.valid_for(next));
  EXPECT_EQ(oracle.graph_epoch(), next.graph_epoch());
  expect_admissible(g2, oracle, "rebuilt");
}

TEST(LandmarkOracle, AnnotateOnlyTouchesEarlyTerminatingTargetedRequests) {
  const SsspEngine engine =
      raw_engine(assign_uniform_weights(gen::chain(30), 3, 1, 10));
  const LandmarkOracle oracle(engine, {});

  QueryRequest topk;
  topk.kind = RequestKind::kTopK;
  topk.k = 3;
  oracle.annotate(topk);
  EXPECT_TRUE(topk.target_lower_bounds.empty());

  QueryRequest full;
  full.targets = {5};
  full.want_full_distances = true;  // exhaustive run: bounds would be noise
  oracle.annotate(full);
  EXPECT_TRUE(full.target_lower_bounds.empty());

  QueryRequest targeted;
  targeted.source = 0;
  targeted.targets = {5, 29};
  oracle.annotate(targeted);
  EXPECT_EQ(targeted.target_lower_bounds.size(), 2u);
}

TEST(LandmarkOracleSerialize, RoundTripPreservesRowsAndServing) {
  const Graph g = assign_uniform_weights(gen::road_network(12, 12, 2), 17,
                                         1, 100);
  PreprocessOptions popts;
  popts.rho = 12;
  const SsspEngine engine(g, popts);
  LandmarkOptions lopts;
  lopts.count = 5;
  lopts.assume_symmetric = true;  // restored by load(): bounds must match
  const LandmarkOracle oracle(engine, lopts);
  ASSERT_TRUE(oracle.valid_for(engine));

  std::stringstream buf;
  oracle.save(buf);
  const LandmarkOracle loaded = LandmarkOracle::load(buf);

  EXPECT_EQ(loaded.graph_epoch(), oracle.graph_epoch());
  EXPECT_EQ(loaded.landmarks(), oracle.landmarks());
  EXPECT_EQ(loaded.rows(), oracle.rows());
  EXPECT_TRUE(loaded.valid_for(engine));

  // Bounds (including the mirrored term toggled by the persisted
  // symmetric flag) and assisted serving must be indistinguishable from
  // the freshly built oracle.
  const Vertex n = g.num_vertices();
  QueryContext ctx;
  for (const Vertex s : spread_sources(g, 4)) {
    const Vertex t = static_cast<Vertex>((s + n / 2) % n);
    EXPECT_EQ(loaded.lower_bound(s, t), oracle.lower_bound(s, t));

    QueryRequest plain;
    plain.source = s;
    plain.targets = {t};
    QueryRequest assisted = plain;
    loaded.annotate(assisted);
    const QueryResponse want = engine.serve(plain, ctx);
    const QueryResponse got = engine.serve(assisted, ctx);
    ASSERT_EQ(got.targets[0].dist, want.targets[0].dist);
    EXPECT_LE(got.stats.steps, want.stats.steps);
  }

  // Epoch discipline survives the round trip: a graph swap after saving
  // makes the LOADED rows stale too.
  const SsspEngine swapped =
      SsspEngine::next_epoch(engine, g, preprocess(g, popts));
  EXPECT_FALSE(loaded.valid_for(swapped));
}

// Byte offsets of the untrusted header counts in the RSLM format:
// magic(4) + version(4) + graph_epoch(8) => n at 16, count at 20.
constexpr std::size_t kOracleVertexCountOffset = 16;
constexpr std::size_t kOracleLandmarkCountOffset = 20;
constexpr std::size_t kOracleLandmarksOffset = 29;  // + count(8) + flag(1)

std::string valid_oracle_bytes() {
  const Graph g = assign_uniform_weights(gen::grid2d(6, 6), 3);
  const SsspEngine engine = raw_engine(g);
  LandmarkOptions opts;
  opts.count = 3;
  const LandmarkOracle oracle(engine, opts);
  std::stringstream buf;
  oracle.save(buf);
  return buf.str();
}

TEST(LandmarkOracleSerialize, RejectsGarbageAndTruncationAtEveryBoundary) {
  std::stringstream garbage;
  garbage << "not a landmark file";
  EXPECT_THROW(LandmarkOracle::load(garbage), std::runtime_error);

  const std::string full = valid_oracle_bytes();
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{3}, std::size_t{10},
        kOracleVertexCountOffset + 2, kOracleLandmarkCountOffset + 8,
        kOracleLandmarksOffset + 5, full.size() / 2, full.size() - 1}) {
    std::stringstream in(full.substr(0, cut));
    EXPECT_THROW(LandmarkOracle::load(in), std::runtime_error)
        << "cut=" << cut;
  }
}

TEST(LandmarkOracleSerialize, RejectsCorruptCountsBeforeAllocating) {
  // A multi-billion-landmark claim must fail as a clean parse error
  // (count is bounded by n, then by the stream size), not as a giant
  // allocation attempt.
  std::string bytes = valid_oracle_bytes();
  const std::uint64_t huge_count = 1ull << 40;
  std::memcpy(&bytes[kOracleLandmarkCountOffset], &huge_count,
              sizeof(huge_count));
  std::stringstream in(bytes);
  EXPECT_THROW(LandmarkOracle::load(in), std::runtime_error);

  // n = 0xFFFFFFFF is the kNoVertex sentinel; rejected outright.
  std::string bytes2 = valid_oracle_bytes();
  const std::uint32_t bad_n = 0xFFFFFFFFu;
  std::memcpy(&bytes2[kOracleVertexCountOffset], &bad_n, sizeof(bad_n));
  std::stringstream in2(bytes2);
  EXPECT_THROW(LandmarkOracle::load(in2), std::runtime_error);

  // A large-but-not-sentinel n must still be bounded by the bytes the
  // stream actually has (rows are count * n distances).
  std::string bytes3 = valid_oracle_bytes();
  const std::uint32_t big_n = 0x7FFFFFFFu;
  std::memcpy(&bytes3[kOracleVertexCountOffset], &big_n, sizeof(big_n));
  std::stringstream in3(bytes3);
  EXPECT_THROW(LandmarkOracle::load(in3), std::runtime_error);
}

TEST(LandmarkOracleSerialize, RejectsOutOfRangeLandmark) {
  std::string bytes = valid_oracle_bytes();
  const std::uint32_t bogus = 1u << 20;  // far beyond the 36-vertex grid
  std::memcpy(&bytes[kOracleLandmarksOffset], &bogus, sizeof(bogus));
  std::stringstream in(bytes);
  EXPECT_THROW(LandmarkOracle::load(in), std::runtime_error);
}

TEST(LandmarkOracleSerialize, FileRoundTrip) {
  const Graph g = assign_uniform_weights(gen::grid2d(7, 7), 5);
  const SsspEngine engine = raw_engine(g);
  LandmarkOptions opts;
  opts.count = 4;
  const LandmarkOracle oracle(engine, opts);

  const std::string path = ::testing::TempDir() + "/rs_landmarks_test.bin";
  oracle.save_file(path);
  const LandmarkOracle loaded = LandmarkOracle::load_file(path);
  EXPECT_EQ(loaded.landmarks(), oracle.landmarks());
  EXPECT_EQ(loaded.rows(), oracle.rows());
  EXPECT_TRUE(loaded.valid_for(engine));
  EXPECT_THROW(LandmarkOracle::load_file("/nonexistent/rs_landmarks.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace rs
