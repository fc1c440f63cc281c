/// \file
/// Incremental re-preprocessing after weight updates (dynamic graphs).
///
/// A cold preprocess() runs one truncated-Dijkstra ball per vertex. After
/// a small weight-update batch almost all of those balls are unchanged:
/// the ball search from s only ever scans out-arcs of vertices it has
/// SETTLED, so ball(s) can change only when some changed arc's TAIL is
/// among s's settled vertices. IncrementalPreprocessor keeps, per ball,
/// the settled member list plus the chosen shortcut triples, and an
/// inverted index member_of_[v] = { s : v settled in ball(s) }. A batch
/// then recomputes exactly the dirty balls — on the warm per-worker
/// context pool — and splices the reused balls' shortcuts with the fresh
/// ones into a new PreprocessResult.
///
/// The splice is BIT-IDENTICAL to a cold rebuild on the updated graph,
/// shortcut segments included: merge_edges() buckets the shortcut
/// triples by source with a counting sort, sorts each bucket, and
/// reconciles it with the vertex's base list read in place — a function
/// of the shortcut multiset and the graph, insensitive to the order the
/// triples are concatenated in — and the per-ball triples themselves are
/// recomputed with the same BallOptions/heuristic as the cold path. The
/// churn suite (tests/test_incremental.cpp) pins result() == cold
/// preprocess() with Graph::operator==, which compares the
/// shortcut-segment starts too, after randomized batches.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"
#include "graph/update.hpp"
#include "shortcut/preprocess_context.hpp"
#include "shortcut/shortcut.hpp"

namespace rs {

/// Work accounting for one IncrementalPreprocessor::apply() call.
struct IncrementalUpdateStats {
  /// Directed arcs whose weight actually changed (no-ops excluded).
  std::size_t updated_arcs = 0;
  /// Balls recomputed — the ones whose settled set contained a changed
  /// arc's tail.
  std::size_t dirty_balls = 0;
  /// Total balls (= vertices); dirty_balls / total_balls is the fraction
  /// of cold-rebuild work the batch actually cost.
  std::size_t total_balls = 0;
};

/// Maintains a PreprocessResult across weight-update batches by
/// recomputing only the balls a batch invalidates (see file comment).
///
/// Typical lifecycle: construct once (cost of a cold preprocess), then
/// alternate apply() — cheap for small batches — and result() — splices a
/// fresh PreprocessResult for SsspEngine::next_epoch(). The per-worker
/// scratch pool stays warm across batches, so steady-state apply() does
/// no per-ball allocation.
class IncrementalPreprocessor {
 public:
  /// Cold-builds all balls for `g` under `options`. Throws
  /// std::invalid_argument for rho or k < 1 or for an asymmetric `g`
  /// under a shortcut-adding heuristic (check_preprocess_input), and
  /// std::overflow_error when a shortcut weight exceeds the Weight range
  /// (same contract as preprocess()).
  IncrementalPreprocessor(const Graph& g, const PreprocessOptions& options);

  IncrementalPreprocessor(const IncrementalPreprocessor&) = delete;
  IncrementalPreprocessor& operator=(const IncrementalPreprocessor&) = delete;

  /// Applies a weight-update batch: re-weights the graph
  /// (apply_weight_updates()), recomputes every dirty ball in parallel,
  /// and commits. Strongly exception-safe: on throw
  /// (std::invalid_argument from a bad update, std::overflow_error from
  /// shortcut overflow) the preprocessor still describes the PRE-batch
  /// graph. A batch that changes no arc (its updates re-state current
  /// weights or cancel out) dirties nothing and costs O(batch).
  IncrementalUpdateStats apply(const std::vector<WeightUpdate>& updates);

  /// Counts the balls a batch WOULD dirty, without applying it: every ball
  /// whose settled set contains an updated edge's endpoint (an undirected
  /// update re-weights both directions, so both endpoints are arc tails).
  /// Upper bound on apply()'s dirty_balls — no-op updates are not filtered
  /// out here because that would need the arc lookup apply() does. O(sum
  /// of member_of_ lists touched); never throws for in-range vertices.
  /// Reuses one scratch flag per ball, so concurrent calls must not share
  /// a preprocessor. Drives the dirty-fraction flush trigger in
  /// serve::DynamicSsspService.
  std::size_t count_dirty(const std::vector<WeightUpdate>& updates) const;

  /// Splices the current balls into a full PreprocessResult for the
  /// current graph — bit-identical to cold preprocess(graph(), options())
  /// (graph, radius, added_edges, added_factor all match).
  PreprocessResult result() const;

  /// The current (post-all-applied-batches) base graph.
  const Graph& graph() const { return graph_; }

  /// The options every ball is computed under.
  const PreprocessOptions& options() const { return options_; }

  /// Current r_rho radii, maintained incrementally.
  const std::vector<Dist>& radius() const { return radius_; }

 private:
  /// Recomputes the balls of sources[0, count) on `base` (of every vertex
  /// when `sources` is null) into the per-source slots of the out arrays
  /// (all sized count), through for_each_ball on the warm pool_. Throws
  /// std::overflow_error on shortcut weight overflow (out arrays then
  /// undefined, nothing committed).
  void compute_balls(const Graph& base, const Vertex* sources,
                     std::size_t count,
                     std::vector<std::vector<Vertex>>& out_members,
                     std::vector<std::vector<EdgeTriple>>& out_shortcuts,
                     std::vector<Dist>& out_radius);

  Graph graph_;
  PreprocessOptions options_;
  PreprocessPool pool_;
  /// r_rho(s) per ball source.
  std::vector<Dist> radius_;
  /// Settled vertices of each ball, in settled order ([0] is the source).
  std::vector<std::vector<Vertex>> members_;
  /// Shortcut triples each ball contributes (empty under kNone).
  std::vector<std::vector<EdgeTriple>> shortcuts_;
  /// Inverted index: member_of_[v] = ball sources whose settled set
  /// contains v. Drives dirty detection from changed-arc tails.
  std::vector<std::vector<Vertex>> member_of_;
  /// count_dirty's scratch: a flag per ball (all clear between calls) and
  /// the balls it flagged.
  mutable std::vector<std::uint8_t> dirty_seen_;
  mutable std::vector<Vertex> dirty_list_;
};

}  // namespace rs
