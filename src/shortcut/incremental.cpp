#include "shortcut/incremental.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

namespace rs {

IncrementalPreprocessor::IncrementalPreprocessor(
    const Graph& g, const PreprocessOptions& options)
    : graph_(g), options_(options) {
  // Once per build: weight updates re-weight both directions of an edge,
  // so they keep a symmetric graph symmetric.
  check_preprocess_input(graph_, options);
  const Vertex n = graph_.num_vertices();

  members_.resize(n);
  shortcuts_.resize(n);
  radius_.assign(n, 0);
  compute_balls(graph_, nullptr, n, members_, shortcuts_, radius_);

  member_of_.resize(n);
  for (Vertex s = 0; s < n; ++s) {
    for (const Vertex v : members_[s]) member_of_[v].push_back(s);
  }
}

void IncrementalPreprocessor::compute_balls(
    const Graph& base, const Vertex* sources, std::size_t count,
    std::vector<std::vector<Vertex>>& out_members,
    std::vector<std::vector<EdgeTriple>>& out_shortcuts,
    std::vector<Dist>& out_radius) {
  // Exceptions may not escape an OpenMP region: record overflow in a flag
  // and throw after the pass instead of aborting the process.
  std::atomic<bool> overflow{false};
  for_each_ball(
      base.with_weight_sorted_adjacency(), sources, count,
      BallOptions{options_.rho, 0, options_.settle_ties}, pool_,
      [&](PreprocessContext& ctx, std::size_t i, const Ball& ball) {
        out_radius[i] = ball.radius;
        auto& mem = out_members[i];
        mem.clear();
        mem.reserve(ball.vertices.size());
        for (const BallVertex& bv : ball.vertices) mem.push_back(bv.v);
        out_shortcuts[i].clear();
        if (!ctx.append_shortcuts(ball, options_, out_shortcuts[i])) {
          overflow.store(true, std::memory_order_relaxed);
        }
      });
  if (overflow.load()) {
    throw std::overflow_error("preprocess: shortcut weight overflow");
  }
}

IncrementalUpdateStats IncrementalPreprocessor::apply(
    const std::vector<WeightUpdate>& updates) {
  IncrementalUpdateStats stats;
  stats.total_balls = graph_.num_vertices();

  // A batch that changes no arc (updates that cancel out or restate
  // weights) is found from its own arcs, before the O(m) copy below.
  if (weight_changes(graph_, updates).empty()) return stats;
  UpdateApplication app = apply_weight_updates(graph_, updates);
  stats.updated_arcs = app.changes.size();

  // A ball search scans out-arcs of settled vertices only, so ball(s) can
  // change only when a changed arc's TAIL is settled in ball(s). Each
  // direction of an undirected update is its own ArcChange, so tails alone
  // are precise AND sound.
  std::vector<std::uint8_t> is_dirty(graph_.num_vertices(), 0);
  std::vector<Vertex> dirty;
  for (const ArcChange& c : app.changes) {
    for (const Vertex s : member_of_[c.u]) {
      if (!is_dirty[s]) {
        is_dirty[s] = 1;
        dirty.push_back(s);
      }
    }
  }
  stats.dirty_balls = dirty.size();

  // Recompute into temporaries first: nothing is committed until the whole
  // batch survived (strong exception safety vs overflow).
  std::vector<std::vector<Vertex>> new_members(dirty.size());
  std::vector<std::vector<EdgeTriple>> new_shortcuts(dirty.size());
  std::vector<Dist> new_radius(dirty.size(), 0);
  compute_balls(app.graph, dirty.data(), dirty.size(), new_members,
                new_shortcuts, new_radius);

  graph_ = std::move(app.graph);
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const Vertex s = dirty[i];
    for (const Vertex v : members_[s]) {
      auto& owners = member_of_[v];
      owners.erase(std::remove(owners.begin(), owners.end(), s),
                   owners.end());
    }
    members_[s] = std::move(new_members[i]);
    for (const Vertex v : members_[s]) member_of_[v].push_back(s);
    shortcuts_[s] = std::move(new_shortcuts[i]);
    radius_[s] = new_radius[i];
  }
  return stats;
}

std::size_t IncrementalPreprocessor::count_dirty(
    const std::vector<WeightUpdate>& updates) const {
  dirty_seen_.resize(graph_.num_vertices(), 0);
  const auto mark = [&](const Vertex t) {
    if (static_cast<std::size_t>(t) >= member_of_.size()) return;
    for (const Vertex s : member_of_[t]) {
      if (!dirty_seen_[s]) {
        dirty_seen_[s] = 1;
        dirty_list_.push_back(s);
      }
    }
  };
  for (const WeightUpdate& up : updates) {
    mark(up.u);
    if (up.v != up.u) mark(up.v);
  }
  const std::size_t dirty = dirty_list_.size();
  for (const Vertex s : dirty_list_) dirty_seen_[s] = 0;
  dirty_list_.clear();
  return dirty;
}

PreprocessResult IncrementalPreprocessor::result() const {
  std::size_t total = 0;
  for (const auto& sc : shortcuts_) total += sc.size();
  std::vector<EdgeTriple> all;
  all.reserve(total);
  for (const auto& sc : shortcuts_) {
    all.insert(all.end(), sc.begin(), sc.end());
  }
  // merge_edges' output depends on the shortcut multiset and the graph
  // alone, so concatenation order is irrelevant: this is bit-identical to
  // the cold path's per-worker staging drain.
  return finish_preprocess(graph_, options_, radius_, std::move(all));
}

}  // namespace rs
