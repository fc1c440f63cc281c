// Shortcut construction: turns any graph into a (k, rho)-graph (Section 4).
//
// For every vertex the rho-nearest ball is computed (ball_search); then a
// heuristic picks which ball members get a direct shortcut edge from the
// ball's source so that every member lies within k hops:
//
//  * kFull1Rho  — shortcut every member beyond 1 hop (the k = 1 scheme;
//                 up to n*rho edges, fewest needed for k = 1);
//  * kGreedy    — shortcut members at tree depth k+1, 2k+1, ... (§4.2.1);
//  * kDP        — per-tree optimal selection via the F(u, t) dynamic
//                 program (§4.2.2);
//  * kNone      — add nothing (radii only). Step counts of Radius-Stepping
//                 depend on rho alone (§5.3), so the step-count experiments
//                 can run without materializing shortcuts.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "shortcut/ball_search.hpp"

namespace rs {

enum class ShortcutHeuristic : std::uint8_t { kNone, kFull1Rho, kGreedy, kDP };

const char* to_string(ShortcutHeuristic h);

struct PreprocessOptions {
  /// rho and k are chosen by wall-clock time with bench/sweep_rho_k.cpp,
  /// not by §5.4's step count. Preprocessing time roughly doubles with
  /// each doubling of rho; with the d_i shortcut cut-off, full queries at
  /// rho = 32 are as fast as at 64 on road n=1M and web n=300k, and
  /// rho = 16 made web queries 5-8% slower at 4 workers at every k.
  Vertex rho = 32;
  /// Theorem 3.2 bounds a step at k + 2 substeps, bought with shortcut
  /// arcs: at rho = 32, k = 3 gave road 4.17x and web 1.52x the original
  /// arcs, and every serve scans those within d_i. k = 9 leaves 1.02x and
  /// 1.00x: a one-target serve at one worker scans 37% fewer arcs on
  /// road n=1M and runs about 20% faster, full queries at 4 workers are
  /// level or faster on both graphs, and road setup falls by a quarter. At
  /// 4 workers the work term, not the depth term, sets the time; on a
  /// much wider machine a smaller k may win again. Ignored by kFull1Rho
  /// (k = 1) and kNone.
  Vertex k = 9;
  ShortcutHeuristic heuristic = ShortcutHeuristic::kDP;
  /// Paper §5.1 tie protocol (settle the whole distance class of the
  /// rho-th vertex). Set false for the exactly-rho footnote variant —
  /// needed to keep unweighted hub graphs tractable at large rho.
  bool settle_ties = true;
};

struct PreprocessResult {
  /// Original graph plus shortcut edges (merged, deduplicated), split
  /// into original and weight-sorted shortcut segments by merge_edges;
  /// under kNone, the original graph itself (unsplit).
  Graph graph;
  /// r(v) = r_rho(v), valid radii for Radius-Stepping on `graph`.
  std::vector<Dist> radius;
  /// Unique new undirected edges contributed by shortcutting.
  EdgeId added_edges = 0;
  /// added_edges / original undirected m — the paper's Tables 2-3 metric.
  double added_factor = 0.0;
  PreprocessOptions options;
};

/// Runs ball searches from every vertex in parallel and applies the chosen
/// shortcut heuristic. The result satisfies r(v) <= r̄_k(v) and
/// |B(v, r(v))| >= rho on the returned graph (Lemma 4.1), with k = 1 for
/// kFull1Rho and k = options.k for kGreedy / kDP. Throws as
/// check_preprocess_input does.
PreprocessResult preprocess(const Graph& g, const PreprocessOptions& options);

/// Throws std::invalid_argument for rho or k < 1, or for a `g` that is not
/// symmetric (is_symmetric) under a heuristic that adds shortcuts, since
/// merge_edges adds every shortcut in both directions. kNone accepts any
/// graph.
void check_preprocess_input(const Graph& g, const PreprocessOptions& options);

/// Reusable scratch for shortcut selection: the ball's shortest-path-tree
/// CSR, the DP tables, the traceback stack, a global->local index map,
/// and the output index list. Everything keeps its capacity across balls,
/// so a warm scratch selects with zero heap allocations. The map needs no
/// stamping: every slot read (a settled vertex's parent, itself a ball
/// member) is written earlier in the same call, so stale entries — from
/// other balls or other graphs — are never consulted.
struct ShortcutSelectScratch {
  /// Grows the per-vertex map to cover `n` vertices; never shrinks.
  void reserve(Vertex n);

  // Ball tree (local ball indices; 0 is the source/root).
  std::vector<std::uint32_t> parent;
  std::vector<std::uint32_t> child_offsets;  // CSR over children
  std::vector<std::uint32_t> children;
  std::vector<std::uint32_t> child_count;
  // DP tables and traceback stack (kDP).
  std::vector<std::uint32_t> dp_f;
  std::vector<std::uint32_t> dp_s;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack;
  // Global vertex -> ball index map (replaces a per-ball hash map).
  std::vector<std::uint32_t> local;
  // Selected ball-vertex indices, reused across calls.
  std::vector<std::uint32_t> selected;
};

/// Shortcut targets for one ball under a heuristic: ball-vertex indices
/// (into ball.vertices) that receive a direct edge from ball.source.
/// Exposed for unit tests; preprocess() uses it internally.
std::vector<std::uint32_t> select_shortcuts(const Ball& ball, Vertex k,
                                            ShortcutHeuristic heuristic);

/// Scratch-reusing form: returns `scratch.selected` (valid until the next
/// call on the same scratch). The serving shape of the selection step — a
/// warm scratch performs zero heap allocations per ball.
const std::vector<std::uint32_t>& select_shortcuts(
    const Ball& ball, Vertex k, ShortcutHeuristic heuristic,
    ShortcutSelectScratch& scratch);

/// Minimum number of shortcut edges for one shortest-path tree so that all
/// members sit within k hops — exhaustive search over subsets, exponential;
/// test oracle for the DP's per-tree optimality.
std::size_t min_shortcuts_bruteforce(const Ball& ball, Vertex k);

}  // namespace rs
