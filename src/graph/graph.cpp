#include "graph/graph.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "parallel/primitives.hpp"

namespace rs {

Graph::Graph(std::vector<EdgeId> offsets, std::vector<Vertex> targets,
             std::vector<Weight> weights, std::vector<EdgeId> shortcut_start)
    : n_(offsets.empty() ? 0 : static_cast<Vertex>(offsets.size() - 1)),
      offsets_(std::move(offsets)),
      targets_(std::move(targets)),
      weights_(std::move(weights)),
      shortcut_start_(std::move(shortcut_start)) {
  if (offsets_.empty()) {
    offsets_.push_back(0);
  }
  if (offsets_.front() != 0 || offsets_.back() != targets_.size() ||
      targets_.size() != weights_.size()) {
    throw std::invalid_argument("Graph: inconsistent CSR arrays");
  }
  if (!std::is_sorted(offsets_.begin(), offsets_.end())) {
    throw std::invalid_argument("Graph: offsets not monotone");
  }
  for (const Vertex t : targets_) {
    if (t >= n_) throw std::invalid_argument("Graph: target out of range");
  }
  if (shortcut_start_.empty()) return;
  if (shortcut_start_.size() != n_) {
    throw std::invalid_argument("Graph: shortcut starts not one per vertex");
  }
  for (Vertex v = 0; v < n_; ++v) {
    if (shortcut_start_[v] < offsets_[v] ||
        shortcut_start_[v] > offsets_[v + 1]) {
      throw std::invalid_argument("Graph: shortcut start outside its list");
    }
    if (!std::is_sorted(weights_.begin() + shortcut_start_[v],
                        weights_.begin() + offsets_[v + 1])) {
      throw std::invalid_argument(
          "Graph: shortcut segment not sorted by weight");
    }
  }
}

Weight Graph::max_weight() const {
  if (weights_.empty()) return 1;
  return parallel_reduce(
      std::size_t{0}, weights_.size(), Weight{0},
      [&](std::size_t i) { return weights_[i]; },
      [](Weight a, Weight b) { return a > b ? a : b; });
}

Weight Graph::min_weight() const {
  Weight best = std::numeric_limits<Weight>::max();
  for (const Weight w : weights_) {
    if (w > 0 && w < best) best = w;
  }
  return best == std::numeric_limits<Weight>::max() ? 1 : best;
}

EdgeId Graph::max_degree() const {
  EdgeId best = 0;
  for (Vertex v = 0; v < n_; ++v) best = std::max(best, degree(v));
  return best;
}

template <typename Cmp>
Graph Graph::with_sorted_adjacency(Cmp cmp) const {
  std::vector<Vertex> targets(targets_.size());
  std::vector<Weight> weights(weights_.size());
  parallel_for(0, n_, [&](std::size_t v) {
    const EdgeId lo = offsets_[v];
    const EdgeId hi = offsets_[v + 1];
    std::vector<std::pair<Weight, Vertex>> adj;
    adj.reserve(static_cast<std::size_t>(hi - lo));
    for (EdgeId e = lo; e < hi; ++e) adj.emplace_back(weights_[e], targets_[e]);
    std::sort(adj.begin(), adj.end(), cmp);
    for (EdgeId e = lo; e < hi; ++e) {
      const auto& [w, t] = adj[static_cast<std::size_t>(e - lo)];
      weights[e] = w;
      targets[e] = t;
    }
  }, /*grain=*/64);
  return Graph(offsets_, std::move(targets), std::move(weights));
}

Graph Graph::with_weight_sorted_adjacency() const {
  return with_sorted_adjacency([](const std::pair<Weight, Vertex>& a,
                                  const std::pair<Weight, Vertex>& b) {
    return a < b;
  });
}

Graph Graph::with_target_sorted_adjacency() const {
  return with_sorted_adjacency([](const std::pair<Weight, Vertex>& a,
                                  const std::pair<Weight, Vertex>& b) {
    return std::pair(a.second, a.first) < std::pair(b.second, b.first);
  });
}

Graph Graph::transposed() const {
  const EdgeId m = num_edges();
  // Counting sort by arc target: offsets first, then a stable placement
  // pass, so the transposed adjacency lists come out sorted by source id.
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n_) + 1, 0);
  for (EdgeId e = 0; e < m; ++e) {
    ++offsets[static_cast<std::size_t>(targets_[e]) + 1];
  }
  for (std::size_t v = 1; v < offsets.size(); ++v) offsets[v] += offsets[v - 1];
  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<Vertex> targets(targets_.size());
  std::vector<Weight> weights(weights_.size());
  for (Vertex u = 0; u < n_; ++u) {
    for (EdgeId e = offsets_[u]; e < offsets_[u + 1]; ++e) {
      const EdgeId pos = cursor[targets_[e]]++;
      targets[pos] = u;
      weights[pos] = weights_[e];
    }
  }
  return Graph(std::move(offsets), std::move(targets), std::move(weights));
}

std::vector<EdgeTriple> Graph::to_triples() const {
  std::vector<EdgeTriple> out(targets_.size());
  parallel_for(0, n_, [&](std::size_t v) {
    for (EdgeId e = offsets_[v]; e < offsets_[v + 1]; ++e) {
      out[e] = EdgeTriple{static_cast<Vertex>(v), targets_[e], weights_[e]};
    }
  }, /*grain=*/256);
  return out;
}

}  // namespace rs
