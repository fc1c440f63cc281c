// Global shortcut selection — a heuristic answer to the paper's open
// problem ("we leave open the question of finding a globally-optimal way to
// add shortcut edges for k > 1", Section 7).
//
// The per-tree heuristics (Section 4.2) optimize every source's ball in
// isolation, so two overlapping balls pay for the same coverage twice. This
// pass processes sources sequentially and re-derives each ball's hop depths
// against ALL edges committed so far — original edges, other sources'
// shortcuts, and its own — adding a shortcut only when a member would
// otherwise exceed k hops. The cover rule shortcuts the violating vertex's
// min-hop predecessor (depth k), which fixes the whole sibling fan at once
// (optimal on paths and brooms, matching the tree DP there).
//
// Soundness: edges are only ever added, so a ball validated at commit time
// stays valid in the final graph; the result is a (k, rho)-graph exactly
// like preprocess()'s.
#pragma once

#include "shortcut/shortcut.hpp"

namespace rs {

/// Like preprocess() with kGreedy/kDP, but globally shared: typically adds
/// noticeably fewer edges on graphs with overlapping balls. Sequential over
/// sources (the sharing is inherently order-dependent), deterministic.
/// Throws as check_preprocess_input does for a heuristic that adds
/// shortcuts, whatever options.heuristic names: an asymmetric `g` too.
PreprocessResult preprocess_global(const Graph& g,
                                   const PreprocessOptions& options);

}  // namespace rs
