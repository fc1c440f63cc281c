#include "core/engine.hpp"

#include <cstdint>
#include <cstring>
#include <sstream>

#include <gtest/gtest.h>

#include "baseline/dijkstra.hpp"
#include "core/radii.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "shortcut/incremental.hpp"
#include "shortcut/serialize.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

TEST(SsspEngine, QueryMatchesDijkstraOnAllEngines) {
  for (const auto& [name, g] : test::weighted_suite(1)) {
    PreprocessOptions opts;
    opts.rho = 12;
    opts.k = 2;
    const SsspEngine engine(g, opts);
    const auto ref = dijkstra(g, 0);
    EXPECT_EQ(engine.serve(test::full_request(0)).dist, ref) << name;
  }
}

TEST(SsspEngine, PathAvoidsShortcutEdgesAndClosesDistance) {
  const Graph g = assign_uniform_weights(gen::grid2d(12, 12), 5, 1, 50);
  PreprocessOptions opts;
  opts.rho = 16;
  opts.k = 1;
  opts.heuristic = ShortcutHeuristic::kFull1Rho;  // plenty of shortcuts
  const SsspEngine engine(g, opts);
  const Vertex target = g.num_vertices() - 1;
  QueryRequest req = test::full_request(0);
  req.targets = {target};
  req.want_paths = true;
  const QueryResponse q = engine.serve(req);
  const auto& path = q.targets[0].path;
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), target);
  // Every hop must be an ORIGINAL edge and the weights must sum to d.
  Dist total = 0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    bool found = false;
    for (EdgeId e = g.first_arc(path[i - 1]); e < g.last_arc(path[i - 1]);
         ++e) {
      if (g.arc_target(e) == path[i]) {
        total += g.arc_weight(e);
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << "hop " << i << " uses a non-original edge";
  }
  EXPECT_EQ(total, q.dist[target]);
}

TEST(SsspEngine, QueryBatchMatchesIndividualQueries) {
  const Graph g = assign_uniform_weights(gen::grid2d(10, 10), 2);
  PreprocessOptions opts;
  opts.rho = 8;
  opts.k = 3;  // keeps shortcut arcs on a graph this small
  const SsspEngine engine(g, opts);
  const std::vector<Vertex> sources{0, 17, 42, 99};
  const auto batch = engine.serve_batch(test::full_requests(sources));
  ASSERT_EQ(batch.size(), sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(batch[i].source, sources[i]);
    EXPECT_EQ(batch[i].dist, engine.serve(test::full_request(sources[i])).dist);
  }
}

TEST(SsspEngine, PathOnDirectedGraphFollowsArcDirections) {
  // One-way ring plus a heavy direct arc 0 -> 9: the shortest route to 9
  // walks the ring, and every hop must respect arc direction. Pre-fix,
  // parents were derived from OUTGOING arcs and the reconstruction
  // returned no usable route on one-way graphs.
  BuildOptions directed;
  directed.symmetrize = false;
  const Vertex n = 10;
  std::vector<EdgeTriple> edges;
  for (Vertex v = 0; v < n; ++v) {
    edges.push_back({v, static_cast<Vertex>((v + 1) % n), 1});
  }
  edges.push_back({0, 9, 50});  // never the shortest route
  PreprocessResult pre;
  pre.graph = build_graph(n, std::move(edges), directed);
  pre.radius = constant_radii(n, 25);
  pre.options.heuristic = ShortcutHeuristic::kNone;
  const SsspEngine engine(pre.graph, pre);

  QueryRequest req = test::full_request(0);
  req.targets = {9};
  req.want_paths = true;
  const QueryResponse q = engine.serve(req);
  ASSERT_EQ(q.dist[9], 9u);
  const auto& path = q.targets[0].path;
  ASSERT_EQ(path.size(), 10u);
  for (Vertex v = 0; v < n; ++v) EXPECT_EQ(path[v], v);
}

TEST(SsspEngine, PathToUnreachableIsEmpty) {
  const Graph g = build_graph(3, {{0, 1, 4}});
  PreprocessOptions opts;
  opts.rho = 2;
  opts.heuristic = ShortcutHeuristic::kNone;
  const SsspEngine engine(g, opts);
  QueryRequest req = test::full_request(0);
  req.targets = {2};
  req.want_paths = true;
  EXPECT_TRUE(engine.serve(req).targets[0].path.empty());
  req.targets = {9};
  EXPECT_THROW(engine.serve(req), std::invalid_argument);
}

TEST(SsspEngine, ShortcutsRejectDirectedRing) {
  // merge_edges adds every shortcut in both directions, so shortcuts over
  // the one-way ring 0 -> 1 -> ... -> 9 -> 0 would add reverse arcs such
  // as 1 -> 9 and answer d(0, 9) below Dijkstra's 9. A shortcut-adding
  // heuristic rejects the ring instead; kNone keeps its arcs and serves
  // it exactly.
  const Graph ring = test::one_way_ring(10);
  ASSERT_EQ(dijkstra(ring, 0)[9], 9u);
  PreprocessOptions opts;
  opts.rho = 4;
  opts.k = 2;
  for (const ShortcutHeuristic h :
       {ShortcutHeuristic::kDP, ShortcutHeuristic::kFull1Rho,
        ShortcutHeuristic::kGreedy}) {
    opts.heuristic = h;
    EXPECT_THROW(SsspEngine(ring, opts), std::invalid_argument) << to_string(h);
    EXPECT_THROW(IncrementalPreprocessor(ring, opts), std::invalid_argument)
        << to_string(h);
  }
  opts.heuristic = ShortcutHeuristic::kNone;
  EXPECT_EQ(SsspEngine(ring, opts).serve(test::full_request(0)).dist,
            dijkstra(ring, 0));
  EXPECT_EQ(IncrementalPreprocessor(ring, opts).result().graph, ring);
}

TEST(Serialize, RoundTripPreservesEverything) {
  const Graph g = assign_uniform_weights(gen::road_network(12, 12, 3), 4);
  PreprocessOptions opts;
  opts.rho = 10;
  opts.k = 2;
  opts.heuristic = ShortcutHeuristic::kGreedy;
  const PreprocessResult pre = preprocess(g, opts);

  std::stringstream buf;
  save_preprocessing(pre, buf);
  const PreprocessResult loaded = load_preprocessing(buf);

  // Graph::operator== compares the shortcut-segment starts too.
  ASSERT_EQ(pre.graph.shortcut_starts().size(), g.num_vertices());
  EXPECT_EQ(loaded.graph, pre.graph);
  EXPECT_EQ(loaded.radius, pre.radius);
  EXPECT_EQ(loaded.added_edges, pre.added_edges);
  EXPECT_DOUBLE_EQ(loaded.added_factor, pre.added_factor);
  EXPECT_EQ(loaded.options.rho, opts.rho);
  EXPECT_EQ(loaded.options.k, opts.k);
  EXPECT_EQ(loaded.options.heuristic, opts.heuristic);
}

TEST(Serialize, LoadedPreprocessingAnswersQueries) {
  const Graph g = assign_uniform_weights(gen::grid2d(15, 15), 9);
  PreprocessOptions opts;
  opts.rho = 16;
  opts.k = 3;  // keeps shortcut arcs on a graph this small
  const PreprocessResult pre = preprocess(g, opts);
  std::stringstream buf;
  save_preprocessing(pre, buf);

  const SsspEngine engine(g, load_preprocessing(buf));
  EXPECT_EQ(engine.serve(test::full_request(7)).dist, dijkstra(g, 7));
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream buf;
  buf << "not a preprocessing file";
  EXPECT_THROW(load_preprocessing(buf), std::runtime_error);
}

TEST(Serialize, RejectsTruncation) {
  const Graph g = gen::chain(6);
  PreprocessOptions opts;
  opts.rho = 3;
  opts.k = 3;  // keeps shortcut arcs on a graph this small
  const PreprocessResult pre = preprocess(g, opts);
  std::stringstream buf;
  save_preprocessing(pre, buf);
  const std::string full = buf.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_preprocessing(cut), std::runtime_error);
}

// Byte offsets of the untrusted header counts in the RSPP format: magic(4)
// + version(4) + rho(4) + k(4) + heuristic(1) + settle_ties(1) +
// added_edges(8) + added_factor(8).
constexpr std::size_t kVertexCountOffset = 34;
constexpr std::size_t kEdgeCountOffset = 38;

std::string valid_preprocessing_bytes() {
  const Graph g = assign_uniform_weights(gen::grid2d(5, 5), 7);
  PreprocessOptions opts;
  opts.rho = 6;
  opts.k = 3;  // keeps shortcut arcs on a graph this small
  std::stringstream buf;
  save_preprocessing(preprocess(g, opts), buf);
  return buf.str();
}

TEST(Serialize, RejectsCorruptEdgeCountBeforeAllocating) {
  std::string bytes = valid_preprocessing_bytes();
  ASSERT_GT(bytes.size(), kEdgeCountOffset + 8);
  // A ~10^12-arc claim must fail as a clean parse error (header bound
  // against the stream size), not as a multi-terabyte allocation attempt.
  const std::uint64_t huge_m = 1ull << 40;
  std::memcpy(&bytes[kEdgeCountOffset], &huge_m, sizeof(huge_m));
  std::stringstream in(bytes);
  EXPECT_THROW(load_preprocessing(in), std::runtime_error);
  // All-ones m would overflow the byte-count math itself.
  const std::uint64_t wrap_m = ~0ull;
  std::memcpy(&bytes[kEdgeCountOffset], &wrap_m, sizeof(wrap_m));
  std::stringstream in2(bytes);
  EXPECT_THROW(load_preprocessing(in2), std::runtime_error);
}

TEST(Serialize, RejectsCorruptVertexCount) {
  std::string bytes = valid_preprocessing_bytes();
  // n = 0xFFFFFFFF makes the legacy `n + 1` offsets count wrap; it must be
  // rejected outright.
  const std::uint32_t bad_n = 0xFFFFFFFFu;
  std::memcpy(&bytes[kVertexCountOffset], &bad_n, sizeof(bad_n));
  std::stringstream in(bytes);
  EXPECT_THROW(load_preprocessing(in), std::runtime_error);
  // A large-but-not-wrapping n must still be bounded by the stream size.
  std::string bytes2 = valid_preprocessing_bytes();
  const std::uint32_t big_n = 0x7FFFFFFFu;
  std::memcpy(&bytes2[kVertexCountOffset], &big_n, sizeof(big_n));
  std::stringstream in2(bytes2);
  EXPECT_THROW(load_preprocessing(in2), std::runtime_error);
}

TEST(Serialize, RejectsTruncationAtEveryBoundary) {
  const std::string full = valid_preprocessing_bytes();
  // Cut inside the header, right after the counts, and mid-payload: every
  // prefix must fail cleanly with an exception, never crash or hang.
  for (const std::size_t cut :
       {std::size_t{3}, std::size_t{20}, kVertexCountOffset + 2,
        kEdgeCountOffset + 8, full.size() / 2, full.size() - 1}) {
    std::stringstream in(full.substr(0, cut));
    EXPECT_THROW(load_preprocessing(in), std::runtime_error) << "cut=" << cut;
  }
}

// Byte layout after the header: offsets[n+1] (u64), targets[m] (u32),
// weights[m] (u32), radius[n] (u64), then the shortcut-start count (u64)
// and the starts (u64 each).
constexpr std::size_t kHeaderBytes = kEdgeCountOffset + 8;

struct Layout {
  std::uint32_t n = 0;
  std::uint64_t m = 0;
  std::size_t weights = 0;  // byte offset of weights[0]
  std::size_t count = 0;    // byte offset of the shortcut-start count
  std::size_t starts = 0;   // byte offset of shortcut_start[0]
};

Layout layout_of(const std::string& bytes) {
  Layout l;
  std::memcpy(&l.n, &bytes[kVertexCountOffset], sizeof(l.n));
  std::memcpy(&l.m, &bytes[kEdgeCountOffset], sizeof(l.m));
  l.weights = kHeaderBytes + (l.n + 1) * 8 + l.m * 4;
  l.count = l.weights + l.m * 4 + l.n * 8;
  l.starts = l.count + 8;
  return l;
}

TEST(Serialize, WritesShortcutStartsAfterTheRadii) {
  const std::string bytes = valid_preprocessing_bytes();
  const Layout l = layout_of(bytes);
  ASSERT_EQ(bytes.size(), l.starts + l.n * 8);
  std::uint64_t count = 0;
  std::memcpy(&count, &bytes[l.count], sizeof(count));
  EXPECT_EQ(count, l.n);
}

TEST(Serialize, RejectsVersionOne) {
  std::string bytes = valid_preprocessing_bytes();
  const std::uint32_t v1 = 1;
  std::memcpy(&bytes[4], &v1, sizeof(v1));
  std::stringstream in(bytes);
  EXPECT_THROW(load_preprocessing(in), std::runtime_error);
}

TEST(Serialize, RejectsCorruptShortcutStart) {
  const std::string good = valid_preprocessing_bytes();
  const Layout l = layout_of(good);
  // Past the arc count, before vertex 1's list, and a count that is
  // neither 0 nor n.
  for (const auto& [where, value] :
       {std::pair{l.starts, l.m + 1}, std::pair{l.starts + 8, std::uint64_t{0}},
        std::pair{l.count, std::uint64_t{l.n - 1}}}) {
    std::string bytes = good;
    std::memcpy(&bytes[where], &value, sizeof(value));
    std::stringstream in(bytes);
    EXPECT_THROW(load_preprocessing(in), std::runtime_error)
        << "offset " << where << " value " << value;
  }
}

TEST(Serialize, RejectsUnsortedShortcutSegment) {
  std::string bytes = valid_preprocessing_bytes();
  std::stringstream clean(bytes);
  const Graph g = load_preprocessing(clean).graph;
  const Layout l = layout_of(bytes);
  // Swap the first two distinct weights of some shortcut segment.
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (EdgeId e = g.first_shortcut_arc(v); e + 1 < g.last_arc(v); ++e) {
      if (g.arc_weight(e) == g.arc_weight(e + 1)) continue;
      const Weight lo = g.arc_weight(e);
      const Weight hi = g.arc_weight(e + 1);
      std::memcpy(&bytes[l.weights + e * 4], &hi, sizeof(hi));
      std::memcpy(&bytes[l.weights + (e + 1) * 4], &lo, sizeof(lo));
      std::stringstream in(bytes);
      EXPECT_THROW(load_preprocessing(in), std::runtime_error);
      return;
    }
  }
  FAIL() << "no shortcut segment with two distinct weights";
}

TEST(Serialize, RejectsTruncationInsideShortcutStarts) {
  const std::string full = valid_preprocessing_bytes();
  const Layout l = layout_of(full);
  for (const std::size_t cut :
       {l.count, l.count + 4, l.starts, l.starts + 8 * (l.n / 2) + 3}) {
    std::stringstream in(full.substr(0, cut));
    EXPECT_THROW(load_preprocessing(in), std::runtime_error) << "cut=" << cut;
  }
}

TEST(Serialize, FileRoundTrip) {
  const Graph g = gen::chain(10);
  PreprocessOptions opts;
  opts.rho = 4;
  opts.k = 3;  // keeps shortcut arcs on a graph this small
  const PreprocessResult pre = preprocess(g, opts);
  const std::string path = ::testing::TempDir() + "/rs_pre_test.bin";
  save_preprocessing_file(pre, path);
  const PreprocessResult loaded = load_preprocessing_file(path);
  EXPECT_EQ(loaded.graph, pre.graph);
  EXPECT_THROW(load_preprocessing_file("/nonexistent/x.bin"),
               std::runtime_error);
}

TEST(SsspEngine, RejectsMismatchedPreprocessing) {
  const Graph g = gen::chain(10);
  const Graph other = gen::chain(12);
  PreprocessOptions opts;
  opts.rho = 4;
  const PreprocessResult pre = preprocess(g, opts);
  EXPECT_THROW(SsspEngine(other, pre), std::invalid_argument);
}

}  // namespace
}  // namespace rs
