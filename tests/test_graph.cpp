#include "graph/graph.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/stats.hpp"
#include "graph/types.hpp"
#include "parallel/primitives.hpp"
#include "parallel/rng.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

Graph triangle() {
  return build_graph(3, {{0, 1, 5}, {1, 2, 3}, {0, 2, 10}});
}

TEST(Graph, EmptyGraph) {
  const Graph g = build_graph(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, VerticesWithoutEdges) {
  const Graph g = build_graph(5, {});
  EXPECT_EQ(g.num_vertices(), 5u);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(Graph, TriangleStructure) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 6u);  // both arc directions
  EXPECT_EQ(g.num_undirected_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.max_weight(), 10u);
  EXPECT_EQ(g.min_weight(), 3u);
  EXPECT_EQ(g.max_degree(), 2u);
}

TEST(Graph, NeighborSpansMatchArcAccessors) {
  const Graph g = triangle();
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto ws = g.neighbor_weights(v);
    ASSERT_EQ(nbrs.size(), ws.size());
    std::size_t idx = 0;
    for (EdgeId e = g.first_arc(v); e < g.last_arc(v); ++e, ++idx) {
      EXPECT_EQ(g.arc_target(e), nbrs[idx]);
      EXPECT_EQ(g.arc_weight(e), ws[idx]);
    }
  }
}

TEST(Builder, SymmetrizeAddsReverseArcs) {
  const Graph g = build_graph(2, {{0, 1, 7}});
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.arc_target(g.first_arc(1)), 0u);
  EXPECT_EQ(g.arc_weight(g.first_arc(1)), 7u);
}

TEST(Builder, NoSymmetrizeKeepsDirection) {
  BuildOptions opts;
  opts.symmetrize = false;
  const Graph g = build_graph(2, {{0, 1, 7}}, opts);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 0u);
}

TEST(Builder, DedupKeepsMinimumWeight) {
  const Graph g = build_graph(2, {{0, 1, 9}, {0, 1, 4}, {1, 0, 6}});
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.arc_weight(g.first_arc(0)), 4u);
  EXPECT_EQ(g.arc_weight(g.first_arc(1)), 4u);
}

TEST(Builder, SelfLoopsRemovedByDefault) {
  const Graph g = build_graph(2, {{0, 0, 1}, {0, 1, 2}});
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(Builder, SelfLoopsKeptWhenRequested) {
  BuildOptions opts;
  opts.remove_self_loops = false;
  opts.symmetrize = false;
  opts.dedup = false;
  const Graph g = build_graph(2, {{0, 0, 1}, {0, 1, 2}}, opts);
  EXPECT_EQ(g.degree(0), 2u);
}

TEST(Builder, RejectsOutOfRangeEndpoint) {
  EXPECT_THROW(build_graph(2, {{0, 2, 1}}), std::invalid_argument);
}

TEST(Builder, AdjacencySortedByTarget) {
  const Graph g = build_graph(4, {{0, 3, 1}, {0, 1, 1}, {0, 2, 1}});
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

/// The comparison-sort builder as a reference: drop self loops, add
/// reverse arcs, sort every triple by (u, v, w), keep the first of each
/// (u, v) group, then lay the sorted triples out as CSR.
Graph reference_build(Vertex n, std::vector<EdgeTriple> t,
                      const BuildOptions& opts) {
  if (opts.remove_self_loops) {
    t.erase(std::remove_if(t.begin(), t.end(),
                           [](const EdgeTriple& a) { return a.u == a.v; }),
            t.end());
  }
  if (opts.symmetrize) {
    const std::size_t m = t.size();
    t.reserve(2 * m);
    for (std::size_t i = 0; i < m; ++i) t.push_back({t[i].v, t[i].u, t[i].w});
  }
  std::sort(t.begin(), t.end(), [](const EdgeTriple& a, const EdgeTriple& b) {
    return std::tie(a.u, a.v, a.w) < std::tie(b.u, b.v, b.w);
  });
  if (opts.dedup) {
    t.erase(std::unique(t.begin(), t.end(),
                        [](const EdgeTriple& a, const EdgeTriple& b) {
                          return a.u == b.u && a.v == b.v;
                        }),
            t.end());
  }
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const EdgeTriple& a : t) ++offsets[a.u + 1];
  for (Vertex v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<Vertex> targets;
  std::vector<Weight> weights;
  for (const EdgeTriple& a : t) {
    targets.push_back(a.v);
    weights.push_back(a.w);
  }
  return Graph(std::move(offsets), std::move(targets), std::move(weights));
}

/// n = 50k, ~400k triples: random arcs among the first 45k vertices (the
/// rest stay isolated), repeated (u, v) pairs with other weights, self
/// loops, and a hub with 20k arcs.
std::vector<EdgeTriple> random_triples(Vertex n) {
  const SplitRng rng(2024);
  const Vertex live = n - 5000;
  const auto weight = [&](std::uint64_t i) {
    return static_cast<Weight>(1 + rng.bounded(9, i, 1000));
  };
  std::vector<EdgeTriple> t;
  for (std::uint64_t i = 0; i < 300'000; ++i) {
    t.push_back({static_cast<Vertex>(rng.bounded(1, i, live)),
                 static_cast<Vertex>(rng.bounded(2, i, live)), weight(i)});
  }
  for (std::uint64_t i = 0; i < 60'000; ++i) {
    const EdgeTriple& a = t[rng.bounded(3, i, 300'000)];
    t.push_back({a.u, a.v, weight(400'000 + i)});
  }
  for (std::uint64_t i = 0; i < 20'000; ++i) {
    const auto v = static_cast<Vertex>(rng.bounded(4, i, live));
    t.push_back({v, v, weight(500'000 + i)});
  }
  for (std::uint64_t i = 0; i < 20'000; ++i) {
    t.push_back({7, static_cast<Vertex>(rng.bounded(5, i, live)),
                 weight(600'000 + i)});
  }
  return t;
}

TEST(Builder, RandomTriplesMatchSortReference) {
  const Vertex n = 50'000;
  const std::vector<EdgeTriple> triples = random_triples(n);
  for (int mask = 0; mask < 8; ++mask) {
    BuildOptions opts;
    opts.symmetrize = (mask & 1) != 0;
    opts.dedup = (mask & 2) != 0;
    opts.remove_self_loops = (mask & 4) != 0;
    const Graph want = reference_build(n, triples, opts);
    for (const int workers : {1, 3, 8}) {
      const test::WorkerGuard guard(workers);
      EXPECT_EQ(build_graph(n, triples, opts), want)
          << "symmetrize=" << opts.symmetrize << " dedup=" << opts.dedup
          << " remove_self_loops=" << opts.remove_self_loops
          << " workers=" << workers;
    }
  }
}

/// Checks merge_edges' split layout of `merged` against the base graph
/// it was built from: the original segment is `base`'s lightest arc per
/// target, sorted by target; the shortcut segment is sorted by (weight,
/// target), shares no target with the original segment, and undercuts
/// any base arc to the same target.
void expect_merge_layout(const Graph& base, const Graph& merged) {
  const Vertex n = merged.num_vertices();
  ASSERT_EQ(merged.shortcut_starts().size(), n);
  const Graph sym = build_graph(n, base.to_triples());  // symmetrized, dedup
  const auto base_weight = [&](Vertex u, Vertex t) -> std::int64_t {
    const auto nb = sym.neighbors(u);
    const auto it = std::lower_bound(nb.begin(), nb.end(), t);
    if (it == nb.end() || *it != t) return -1;
    return sym.arc_weight(sym.first_arc(u) +
                          static_cast<EdgeId>(it - nb.begin()));
  };
  for (Vertex u = 0; u < n; ++u) {
    const EdgeId cut = merged.first_shortcut_arc(u);
    std::vector<Vertex> original;
    for (EdgeId e = merged.first_arc(u); e < cut; ++e) {
      const Vertex t = merged.arc_target(e);
      ASSERT_TRUE(original.empty() || original.back() < t) << "u=" << u;
      ASSERT_EQ(base_weight(u, t), merged.arc_weight(e)) << "u=" << u;
      original.push_back(t);
    }
    for (EdgeId e = cut; e < merged.last_arc(u); ++e) {
      const Vertex t = merged.arc_target(e);
      const Weight w = merged.arc_weight(e);
      if (e > cut) {
        ASSERT_LT(std::pair(merged.arc_weight(e - 1), merged.arc_target(e - 1)),
                  std::pair(w, t))
            << "u=" << u;
      }
      ASSERT_FALSE(std::binary_search(original.begin(), original.end(), t))
          << "u=" << u;
      const std::int64_t bw = base_weight(u, t);
      ASSERT_TRUE(bw < 0 || w < bw) << "u=" << u;
    }
    // Every base target survives in one of the two segments.
    ASSERT_GE(merged.degree(u), sym.degree(u)) << "u=" << u;
  }
}

TEST(MergeEdges, OverlappingBaseMatchesSortReference) {
  // Extra arcs repeat some base arcs with lighter, equal and heavier
  // weights, in either direction, and add new ones.
  const Vertex n = 50'000;
  const std::vector<EdgeTriple> triples = random_triples(n);
  const Graph base = build_graph(n, triples);
  const SplitRng rng(77);
  std::vector<EdgeTriple> extra;
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    const EdgeTriple& a = triples[rng.bounded(0, i, triples.size())];
    const auto w = static_cast<Weight>(1 + rng.bounded(1, i, 1000));
    extra.push_back(i % 2 == 0 ? EdgeTriple{a.u, a.v, w}
                               : EdgeTriple{a.v, a.u, w});
  }
  for (std::uint64_t i = 0; i < 50'000; ++i) {
    extra.push_back({static_cast<Vertex>(rng.bounded(2, i, n)),
                     static_cast<Vertex>(rng.bounded(3, i, n)),
                     static_cast<Weight>(1 + rng.bounded(4, i, 1000))});
  }
  std::vector<EdgeTriple> all = base.to_triples();
  all.insert(all.end(), extra.begin(), extra.end());
  const Graph want = reference_build(n, std::move(all), BuildOptions{});
  for (const int workers : {1, 3, 8}) {
    const test::WorkerGuard guard(workers);
    const Graph merged = merge_edges(base, extra);
    // The arc set is the reference's; only the order within a list moved.
    EXPECT_EQ(merged.with_target_sorted_adjacency(), want)
        << "workers=" << workers;
    expect_merge_layout(base, merged);
  }
}

/// merge_edges by sorting: both arc sets symmetrized and cleaned as
/// reference_build does, then per vertex and target the base arc stays
/// unless the lightest extra arc is strictly lighter. Original arcs come
/// by target, shortcut arcs by (weight, target).
Graph reference_merge(const Graph& base, std::vector<EdgeTriple> extra) {
  const Vertex n = base.num_vertices();
  const Graph b = reference_build(n, base.to_triples(), BuildOptions{});
  const Graph x = reference_build(n, std::move(extra), BuildOptions{});
  std::vector<EdgeId> offsets{0};
  std::vector<EdgeId> starts;
  std::vector<Vertex> targets;
  std::vector<Weight> weights;
  for (Vertex u = 0; u < n; ++u) {
    std::vector<std::pair<Weight, Vertex>> shortcuts;
    EdgeId j = x.first_arc(u);
    for (EdgeId e = b.first_arc(u); e < b.last_arc(u); ++e) {
      const Vertex t = b.arc_target(e);
      for (; j < x.last_arc(u) && x.arc_target(j) < t; ++j) {
        shortcuts.emplace_back(x.arc_weight(j), x.arc_target(j));
      }
      if (j < x.last_arc(u) && x.arc_target(j) == t &&
          x.arc_weight(j++) < b.arc_weight(e)) {
        shortcuts.emplace_back(x.arc_weight(j - 1), t);
        continue;
      }
      targets.push_back(t);
      weights.push_back(b.arc_weight(e));
    }
    for (; j < x.last_arc(u); ++j) {
      shortcuts.emplace_back(x.arc_weight(j), x.arc_target(j));
    }
    std::sort(shortcuts.begin(), shortcuts.end());
    starts.push_back(targets.size());
    for (const auto& [w, t] : shortcuts) {
      targets.push_back(t);
      weights.push_back(w);
    }
    offsets.push_back(targets.size());
  }
  return Graph(std::move(offsets), std::move(targets), std::move(weights),
               std::move(starts));
}

/// merge_edges(base, extra) equals reference_merge at 1, 3 and 8 workers.
void expect_merge_matches_reference(const Graph& base,
                                    const std::vector<EdgeTriple>& extra) {
  const Graph want = reference_merge(base, extra);
  for (const int workers : {1, 3, 8}) {
    const test::WorkerGuard guard(workers);
    EXPECT_EQ(merge_edges(base, extra), want) << "workers=" << workers;
  }
}

/// Extra arcs over `base`'s pairs: each repeats a base arc, in either
/// direction, heavier than, as heavy as or strictly lighter than it; some
/// come twice. Then new pairs, and self-loops. Only vertices below
/// `busy` get any, so they sit next to vertices with none.
std::vector<EdgeTriple> overlapping_extra(const Graph& base, Vertex busy,
                                          std::uint64_t seed) {
  const SplitRng rng(seed);
  std::vector<EdgeTriple> extra;
  std::uint64_t i = 0;
  for (Vertex u = 0; u < busy; ++u) {
    for (EdgeId e = base.first_arc(u); e < base.last_arc(u); ++e, ++i) {
      const Vertex v = base.arc_target(e);
      const Weight w = base.arc_weight(e);
      Weight x = w;
      switch (rng.bounded(0, i, 4)) {
        case 0:
          x = w + 1 + static_cast<Weight>(rng.bounded(1, i, 50));
          break;
        case 1:
          x = w > 1 ? w - 1 - static_cast<Weight>(rng.bounded(2, i, w - 1))
                    : w;
          break;
        case 2:
          continue;
        default:
          break;
      }
      extra.push_back(i % 2 == 0 ? EdgeTriple{u, v, x} : EdgeTriple{v, u, x});
      if (i % 7 == 0) extra.push_back(extra.back());
    }
    const auto t = static_cast<Vertex>(rng.bounded(3, u, base.num_vertices()));
    extra.push_back({u, t, static_cast<Weight>(1 + rng.bounded(4, u, 1000))});
    if (u % 5 == 0) extra.push_back({u, u, 1});
  }
  return extra;
}

TEST(MergeEdges, MatchesReferenceOnTargetSortedBase) {
  const Vertex n = 50'000;
  const Graph base = build_graph(n, random_triples(n));
  // Vertex 7 is random_triples' hub; the busy vertices include it.
  expect_merge_matches_reference(base, overlapping_extra(base, 2'000, 5));
}

TEST(MergeEdges, MatchesReferenceOnBaseOutOfTargetOrder) {
  const Vertex n = 50'000;
  const Graph base =
      build_graph(n, random_triples(n)).with_weight_sorted_adjacency();
  ASSERT_TRUE(is_symmetric(base));
  expect_merge_matches_reference(base, overlapping_extra(base, 2'000, 6));
  expect_merge_matches_reference(base, {});
}

TEST(MergeEdges, MatchesReferenceOnSymmetricMultigraphBase) {
  // Parallel arcs with other weights and self-loops stay in the base: the
  // merge keeps the lightest arc per target and drops the loops.
  BuildOptions multi;
  multi.dedup = false;
  multi.remove_self_loops = false;
  const Vertex n = 50'000;
  const Graph base = build_graph(n, random_triples(n), multi);
  ASSERT_TRUE(is_symmetric(base));
  expect_merge_matches_reference(base, overlapping_extra(base, 2'000, 7));
  expect_merge_matches_reference(base.with_weight_sorted_adjacency(),
                                 overlapping_extra(base, 500, 8));
}

TEST(MergeEdges, RejectsExtraArcOutOfRange) {
  const Graph g = triangle();
  EXPECT_THROW(merge_edges(g, {{0, 3, 1}}), std::invalid_argument);
  EXPECT_THROW(merge_edges(g, {{0, 1, 1}, {3, 0, 1}}), std::invalid_argument);
}

TEST(MergeEdges, OverlapsResolveByWeight) {
  // Base: 0-1 (5), 0-2 (10), 0-3 (4). Extra: a lighter 0-1, an equal 0-3,
  // a heavier 0-2, and new pairs 0-4 and 0-5.
  const Graph base = build_graph(6, {{0, 1, 5}, {0, 2, 10}, {0, 3, 4}});
  const Graph merged = merge_edges(
      base, {{1, 0, 2}, {0, 3, 4}, {0, 2, 12}, {0, 5, 7}, {4, 0, 7}});
  expect_merge_layout(base, merged);
  using Arcs = std::vector<std::pair<Vertex, Weight>>;
  // The (target, weight) arcs of u's original or shortcut segment.
  const auto segment = [&](Vertex u, bool shortcut) {
    Arcs out;
    const EdgeId cut = merged.first_shortcut_arc(u);
    for (EdgeId e = shortcut ? cut : merged.first_arc(u);
         e < (shortcut ? merged.last_arc(u) : cut); ++e) {
      out.emplace_back(merged.arc_target(e), merged.arc_weight(e));
    }
    return out;
  };
  // Lighter: the extra arc replaces 0-1 and sits in the shortcut segment.
  // Equal and heavier: the base arc stays, the extra one is dropped.
  EXPECT_EQ(segment(0, false), (Arcs{{2, 10}, {3, 4}}));
  // Shortcut segment by (weight, target): 0-1 (2), then 0-4 and 0-5 (7).
  EXPECT_EQ(segment(0, true), (Arcs{{1, 2}, {4, 7}, {5, 7}}));
  // The reverse arcs follow the same rule.
  EXPECT_EQ(segment(1, false), Arcs{});
  EXPECT_EQ(segment(1, true), (Arcs{{0, 2}}));
  EXPECT_EQ(segment(3, false), (Arcs{{0, 4}}));
  EXPECT_EQ(segment(3, true), Arcs{});
  // Graphs that are not merge_edges output are unsplit.
  EXPECT_TRUE(base.shortcut_starts().empty());
  EXPECT_TRUE(merged.with_target_sorted_adjacency().shortcut_starts().empty());
  EXPECT_TRUE(merged.with_weight_sorted_adjacency().shortcut_starts().empty());
  EXPECT_TRUE(merged.transposed().shortcut_starts().empty());
  EXPECT_NE(merged, merged.with_target_sorted_adjacency());
}

TEST(Graph, RejectsShortcutStartOutsideItsList) {
  // Vertex 0 owns arcs [0, 2), vertex 1 owns [2, 3).
  const std::vector<EdgeId> offsets{0, 2, 3};
  const std::vector<Vertex> targets{1, 1, 0};
  const std::vector<Weight> weights{1, 2, 1};
  EXPECT_NO_THROW(Graph(offsets, targets, weights, {1, 3}));
  EXPECT_THROW(Graph(offsets, targets, weights, {3, 3}),
               std::invalid_argument);
  EXPECT_THROW(Graph(offsets, targets, weights, {0, 1}),
               std::invalid_argument);
  EXPECT_THROW(Graph(offsets, targets, weights, {0}), std::invalid_argument);
}

TEST(Graph, RejectsShortcutSegmentNotSortedByWeight) {
  const std::vector<EdgeId> offsets{0, 2, 3};
  const std::vector<Vertex> targets{1, 1, 0};
  const std::vector<Weight> weights{2, 1, 1};
  // Vertex 0's arcs weigh 2 then 1: fine as original arcs, not as a
  // shortcut segment.
  EXPECT_NO_THROW(Graph(offsets, targets, weights, {1, 2}));
  EXPECT_THROW(Graph(offsets, targets, weights, {0, 2}),
               std::invalid_argument);
}

TEST(Graph, WeightSortedAdjacency) {
  const Graph g = build_graph(4, {{0, 1, 9}, {0, 2, 1}, {0, 3, 5}});
  const Graph gw = g.with_weight_sorted_adjacency();
  const auto ws = gw.neighbor_weights(0);
  ASSERT_EQ(ws.size(), 3u);
  EXPECT_TRUE(std::is_sorted(ws.begin(), ws.end()));
  // Same edge multiset.
  EXPECT_EQ(gw.with_target_sorted_adjacency(),
            g.with_target_sorted_adjacency());
}

TEST(Graph, ToTriplesRoundTrip) {
  const Graph g = triangle();
  const Graph g2 = build_graph(3, g.to_triples());
  EXPECT_EQ(g, g2.with_target_sorted_adjacency());
}

TEST(Graph, RejectsInconsistentCsr) {
  EXPECT_THROW(Graph({0, 2}, {1}, {1}), std::invalid_argument);  // offs vs arcs
  EXPECT_THROW(Graph({0, 1}, {5}, {1}), std::invalid_argument);  // target range
  EXPECT_THROW(Graph({0, 1}, {0}, {1, 2}), std::invalid_argument);  // wt size
  EXPECT_THROW(Graph({1, 0}, {}, {}), std::invalid_argument);  // non-monotone
}

TEST(MergeEdges, AddsNewEdgesAndDedups) {
  const Graph g = triangle();
  const Graph merged = merge_edges(g, {{0, 1, 2}, {1, 2, 99}});
  // (0,1) improved to weight 2; (1,2) keeps 3; no new pairs.
  EXPECT_EQ(merged.num_undirected_edges(), 3u);
  const auto nb = merged.neighbors(0);
  const auto it = std::find(nb.begin(), nb.end(), Vertex{1});
  ASSERT_NE(it, nb.end());
  EXPECT_EQ(merged.arc_weight(merged.first_arc(0) +
                              static_cast<EdgeId>(it - nb.begin())),
            2u);
}

TEST(MergeEdges, CountsNewPairs) {
  const Graph g = build_graph(4, {{0, 1, 1}, {1, 2, 1}});
  const Graph merged = merge_edges(g, {{0, 3, 5}});
  EXPECT_EQ(merged.num_undirected_edges(), 3u);
  EXPECT_EQ(merged.degree(3), 1u);
}

TEST(Stats, ConnectedComponents) {
  const Graph g = build_graph(5, {{0, 1, 1}, {1, 2, 1}, {3, 4, 1}});
  const auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_FALSE(is_connected(g));
}

TEST(Stats, LargestComponentExtraction) {
  const Graph g = build_graph(6, {{0, 1, 2}, {1, 2, 3}, {3, 4, 1}});
  std::vector<Vertex> map;
  const Graph big = largest_component(g, &map);
  EXPECT_EQ(big.num_vertices(), 3u);
  EXPECT_EQ(big.num_undirected_edges(), 2u);
  EXPECT_TRUE(is_connected(big));
  EXPECT_EQ(map[5], kNoVertex);
  EXPECT_NE(map[0], kNoVertex);
}

TEST(Stats, DegreeStats) {
  const Graph g = build_graph(4, {{0, 1, 1}, {0, 2, 1}, {0, 3, 1}});
  const DegreeStats s = degree_stats(g);
  EXPECT_EQ(s.max, 3u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 6.0 / 4.0);
}

TEST(Stats, IsSymmetricComparesLightestArcPerDirection) {
  BuildOptions keep;
  keep.symmetrize = false;
  keep.remove_self_loops = false;
  keep.dedup = false;
  EXPECT_TRUE(is_symmetric(triangle()));
  EXPECT_TRUE(is_symmetric(build_graph(3, {})));
  // A one-way arc, and a pair whose directions weigh differently.
  EXPECT_FALSE(is_symmetric(build_graph(2, {{0, 1, 4}}, keep)));
  EXPECT_FALSE(is_symmetric(build_graph(2, {{0, 1, 4}, {1, 0, 5}}, keep)));
  // Only the lightest arc per direction counts, and self-loops not at all.
  EXPECT_TRUE(is_symmetric(build_graph(
      2, {{0, 1, 9}, {0, 1, 4}, {1, 0, 4}, {1, 1, 2}}, keep)));
  EXPECT_FALSE(is_symmetric(build_graph(
      2, {{0, 1, 4}, {1, 0, 9}, {1, 0, 5}, {0, 0, 1}}, keep)));
  // Lists out of (target, weight) order are checked on a sorted copy.
  EXPECT_TRUE(is_symmetric(Graph({0, 2, 3}, {1, 1, 0}, {9, 4, 4})));
  EXPECT_TRUE(is_symmetric(triangle().with_weight_sorted_adjacency()));
  EXPECT_FALSE(is_symmetric(
      build_graph(3, {{0, 2, 1}, {2, 0, 1}, {0, 1, 4}, {1, 0, 5}}, keep)
          .with_weight_sorted_adjacency()));
}

TEST(Span, AdjacencyViewMatchesCsrArrays) {
  // rs::Span is the C++17 replacement for the std::span the accessors used
  // to return; pin its whole surface against the raw CSR arrays.
  const Graph g = triangle();
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto wts = g.neighbor_weights(v);
    ASSERT_EQ(nbrs.size(), static_cast<std::size_t>(g.degree(v)));
    ASSERT_EQ(wts.size(), nbrs.size());
    EXPECT_EQ(nbrs.data(), g.targets().data() + g.first_arc(v));
    EXPECT_EQ(wts.data(), g.weights().data() + g.first_arc(v));
    std::size_t i = 0;
    for (const Vertex u : nbrs) {  // range-for via begin()/end()
      EXPECT_EQ(u, nbrs[i]);
      EXPECT_EQ(u, g.arc_target(g.first_arc(v) + i));
      ++i;
    }
    EXPECT_EQ(i, nbrs.size());
    if (!nbrs.empty()) {
      EXPECT_EQ(nbrs.front(), nbrs[0]);
      EXPECT_EQ(nbrs.back(), nbrs[nbrs.size() - 1]);
    }
  }
  const Graph lonely = build_graph(1, {});
  EXPECT_TRUE(lonely.neighbors(0).empty());
  EXPECT_EQ(lonely.neighbors(0).size(), 0u);
}

TEST(Graph, EqualityComparesAllComponents) {
  // operator== / != were defaulted (C++20) and are now hand-written; make
  // sure every member participates.
  const Graph a = triangle();
  const Graph b = triangle();
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a != b);
  const Graph different_weight =
      build_graph(3, {{0, 1, 6}, {1, 2, 3}, {0, 2, 10}});
  EXPECT_TRUE(a != different_weight);
  const Graph different_edge = build_graph(3, {{0, 1, 5}, {1, 2, 3}});
  EXPECT_TRUE(a != different_edge);
  const Graph different_n = build_graph(4, {{0, 1, 5}, {1, 2, 3}, {0, 2, 10}});
  EXPECT_TRUE(a != different_n);
}

TEST(EdgeTriple, EqualityComparesAllFields) {
  const EdgeTriple t{1, 2, 3};
  EXPECT_TRUE(t == (EdgeTriple{1, 2, 3}));
  EXPECT_TRUE(t != (EdgeTriple{9, 2, 3}));
  EXPECT_TRUE(t != (EdgeTriple{1, 9, 3}));
  EXPECT_TRUE(t != (EdgeTriple{1, 2, 9}));
}

TEST(Graph, TransposeReversesArcsAndIsInvolutive) {
  BuildOptions directed;
  directed.symmetrize = false;
  const Graph g = build_graph(
      4, {{0, 1, 5}, {0, 2, 9}, {2, 1, 3}, {3, 0, 7}, {1, 1, 2}}, directed);
  const Graph t = g.transposed();
  ASSERT_EQ(t.num_vertices(), g.num_vertices());
  ASSERT_EQ(t.num_edges(), g.num_edges());
  // Arc multisets must be exact mirrors (weights kept).
  auto fwd = g.to_triples();
  auto rev = t.to_triples();
  for (auto& e : rev) std::swap(e.u, e.v);
  const auto key = [](const EdgeTriple& a, const EdgeTriple& b) {
    return std::tie(a.u, a.v, a.w) < std::tie(b.u, b.v, b.w);
  };
  std::sort(fwd.begin(), fwd.end(), key);
  std::sort(rev.begin(), rev.end(), key);
  EXPECT_EQ(fwd, rev);
  // Double transpose is the identity up to adjacency order.
  EXPECT_EQ(t.transposed().with_target_sorted_adjacency(),
            g.with_target_sorted_adjacency());
  // A symmetric graph transposes to itself (same arc multiset).
  const Graph und = build_graph(3, {{0, 1, 4}, {1, 2, 6}});
  EXPECT_EQ(und.transposed().with_target_sorted_adjacency(),
            und.with_target_sorted_adjacency());
}

TEST(Stats, EccentricityAndDiameter) {
  // Path 0-1-2-3: ecc(0)=3, diameter=3.
  const Graph g = build_graph(4, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}});
  EXPECT_EQ(bfs_eccentricity(g, 0), 3u);
  EXPECT_EQ(bfs_eccentricity(g, 1), 2u);
  EXPECT_EQ(approx_diameter(g, 1), 3u);
}

}  // namespace
}  // namespace rs
