#include "shortcut/shortcut.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/stats.hpp"

namespace rs {

namespace {

/// Builds the child adjacency of `ball`'s shortest-path tree into `s`
/// (s.parent / s.child_offsets / s.children), in local ball indices (index
/// into ball.vertices; 0 is the source/root). Settle order is a valid
/// topological order: parents always precede children. All storage is
/// drawn from the scratch — the global->local map replaces the per-ball
/// hash map, so a warm scratch builds trees allocation-free.
void build_tree(const Ball& ball, ShortcutSelectScratch& s) {
  const std::size_t b = ball.vertices.size();
  Vertex max_v = 0;
  for (const BallVertex& bv : ball.vertices) max_v = std::max(max_v, bv.v);
  if (b != 0) s.reserve(max_v + 1);

  for (std::size_t i = 0; i < b; ++i) {
    s.local[ball.vertices[i].v] = static_cast<std::uint32_t>(i);
  }

  s.parent.assign(b, 0);
  s.child_count.assign(b, 0);
  for (std::size_t i = 1; i < b; ++i) {
    // Parents of settled vertices are themselves settled ball members.
    const std::uint32_t p = s.local[ball.vertices[i].parent];
    s.parent[i] = p;
    ++s.child_count[p];
  }
  s.child_offsets.assign(b + 1, 0);
  for (std::size_t i = 0; i < b; ++i) {
    s.child_offsets[i + 1] = s.child_offsets[i] + s.child_count[i];
  }
  s.children.assign(b == 0 ? 0 : s.child_offsets[b], 0);
  // Reuse child_count as the fill cursor.
  for (std::size_t i = 0; i < b; ++i) s.child_count[i] = s.child_offsets[i];
  for (std::size_t i = 1; i < b; ++i) {
    s.children[s.child_count[s.parent[i]]++] = static_cast<std::uint32_t>(i);
  }
}

void select_full(const Ball& ball, std::vector<std::uint32_t>& out) {
  for (std::size_t i = 1; i < ball.vertices.size(); ++i) {
    if (ball.vertices[i].hops > 1) out.push_back(static_cast<std::uint32_t>(i));
  }
}

void select_greedy(const Ball& ball, Vertex k,
                   std::vector<std::uint32_t>& out) {
  // Shortcut tree depths k+1, 2k+1, 3k+1, ... — every node then lies within
  // k hops: a node at depth ki+1+j (0 <= j < k) reaches the shortcut at
  // depth ki+1 in j extra hops after the 1-hop shortcut.
  for (std::size_t i = 1; i < ball.vertices.size(); ++i) {
    const Vertex h = ball.vertices[i].hops;
    if (h > k && (h - 1) % k == 0) out.push_back(static_cast<std::uint32_t>(i));
  }
}

/// §4.2.2's per-tree optimum. A ball whose members all sit within k hops
/// (tree depth is `hops`) returns before its tree is built: no parent
/// then sits at depth k, so no t = k shortcut is forced, every F the
/// traceback reads is 0, and the DP would select nothing. At the default
/// k = 9 that is about 97% of road and web balls.
void select_dp(const Ball& ball, Vertex k_in, ShortcutSelectScratch& s) {
  if (std::all_of(ball.vertices.begin(), ball.vertices.end(),
                  [&](const BallVertex& bv) { return bv.hops <= k_in; })) {
    return;
  }
  const std::size_t b = ball.vertices.size();
  build_tree(ball, s);

  // F[i * (k+1) + t] = min edges into the subtree of local node i so that
  // every node there sits within k hops of the root, given parent(i) is t
  // hops from the root (paper §4.2.2). S[i] = cost when i is shortcut:
  // 1 + sum_child F(child, 1). The tree is at most b - 1 hops deep, so
  // every (i, t) the traceback reads has t < b - 1: a depth of
  // min(k, b - 1) selects the same set and keeps the table at b^2 entries
  // for a huge k.
  const std::size_t k = std::min<std::size_t>(k_in, b - 1);
  const std::size_t kk = k + 1;
  s.dp_f.assign(b * kk, 0);
  s.dp_s.assign(b, 0);

  // Bottom-up: reverse settle order visits children before parents.
  for (std::size_t i = b; i-- > 1;) {
    std::uint32_t shortcut_cost = 1;
    for (std::uint32_t c = s.child_offsets[i]; c < s.child_offsets[i + 1];
         ++c) {
      shortcut_cost += s.dp_f[s.children[c] * kk + 1];
    }
    s.dp_s[i] = shortcut_cost;
    for (std::size_t t = 0; t < kk; ++t) {
      if (t == k) {
        s.dp_f[i * kk + t] = shortcut_cost;
        continue;
      }
      std::uint32_t no_shortcut = 0;
      for (std::uint32_t c = s.child_offsets[i]; c < s.child_offsets[i + 1];
           ++c) {
        no_shortcut += s.dp_f[s.children[c] * kk + (t + 1)];
      }
      s.dp_f[i * kk + t] = std::min(shortcut_cost, no_shortcut);
    }
  }

  // Trace back top-down. Pairs (node, t); root children start at t = 0.
  s.stack.clear();
  for (std::uint32_t c = s.child_offsets[0]; c < s.child_offsets[1]; ++c) {
    s.stack.push_back({s.children[c], 0});
  }
  while (!s.stack.empty()) {
    const auto [i, t] = s.stack.back();
    s.stack.pop_back();
    bool shortcut = false;
    if (t == k) {
      shortcut = true;
    } else {
      std::uint32_t no_shortcut = 0;
      for (std::uint32_t c = s.child_offsets[i]; c < s.child_offsets[i + 1];
           ++c) {
        no_shortcut += s.dp_f[s.children[c] * kk + (t + 1)];
      }
      shortcut = s.dp_s[i] < no_shortcut;
    }
    if (shortcut) s.selected.push_back(i);
    const std::uint32_t child_t = shortcut ? 1 : t + 1;
    for (std::uint32_t c = s.child_offsets[i]; c < s.child_offsets[i + 1];
         ++c) {
      s.stack.push_back({s.children[c], child_t});
    }
  }
  std::sort(s.selected.begin(), s.selected.end());
}

}  // namespace

void ShortcutSelectScratch::reserve(Vertex n) {
  if (local.size() < n) local.resize(n, 0);
}

const char* to_string(ShortcutHeuristic h) {
  switch (h) {
    case ShortcutHeuristic::kNone:
      return "none";
    case ShortcutHeuristic::kFull1Rho:
      return "full(1,rho)";
    case ShortcutHeuristic::kGreedy:
      return "greedy";
    case ShortcutHeuristic::kDP:
      return "dp";
  }
  return "?";
}

const std::vector<std::uint32_t>& select_shortcuts(
    const Ball& ball, Vertex k, ShortcutHeuristic heuristic,
    ShortcutSelectScratch& scratch) {
  scratch.selected.clear();  // keeps capacity
  switch (heuristic) {
    case ShortcutHeuristic::kNone:
      break;
    case ShortcutHeuristic::kFull1Rho:
      select_full(ball, scratch.selected);
      break;
    case ShortcutHeuristic::kGreedy:
      select_greedy(ball, k, scratch.selected);
      break;
    case ShortcutHeuristic::kDP:
      select_dp(ball, k, scratch);
      break;
  }
  return scratch.selected;
}

std::vector<std::uint32_t> select_shortcuts(const Ball& ball, Vertex k,
                                            ShortcutHeuristic heuristic) {
  ShortcutSelectScratch scratch;
  return select_shortcuts(ball, k, heuristic, scratch);
}

std::size_t min_shortcuts_bruteforce(const Ball& ball, Vertex k) {
  const std::size_t b = ball.vertices.size();
  if (b <= 1) return 0;
  if (b > 20) throw std::invalid_argument("bruteforce: ball too large");
  ShortcutSelectScratch tree;
  build_tree(ball, tree);

  std::size_t best = b;  // full shortcutting always works
  const std::size_t subsets = std::size_t{1} << (b - 1);  // nodes 1..b-1
  std::vector<Vertex> depth(b, 0);
  for (std::size_t mask = 0; mask < subsets; ++mask) {
    const std::size_t count =
        static_cast<std::size_t>(__builtin_popcountll(mask));
    if (count >= best) continue;
    bool ok = true;
    for (std::size_t i = 1; i < b && ok; ++i) {
      const bool has_shortcut = (mask >> (i - 1)) & 1;
      depth[i] = has_shortcut
                     ? 1
                     : static_cast<Vertex>(depth[tree.parent[i]] + 1);
      if (depth[i] > k) ok = false;
    }
    if (ok) best = count;
  }
  return best;
}

void check_preprocess_input(const Graph& g, const PreprocessOptions& options) {
  if (options.rho == 0) throw std::invalid_argument("preprocess: rho >= 1");
  if (options.k == 0) throw std::invalid_argument("preprocess: k >= 1");
  if (options.heuristic != ShortcutHeuristic::kNone && !is_symmetric(g)) {
    throw std::invalid_argument(
        "preprocess: shortcuts need a symmetric graph (use kNone for a "
        "directed one)");
  }
}

}  // namespace rs
