#include "core/rs_bst.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include <omp.h>

#include "parallel/primitives.hpp"
#include "pset/treap.hpp"

namespace rs {
namespace {

using Key = std::pair<Dist, Vertex>;
using OrderedSet = Treap<Key>;

}  // namespace

std::vector<Dist> radius_stepping_bst(const Graph& g, Vertex source,
                                      const std::vector<Dist>& radius,
                                      RunStats* stats) {
  const Vertex n = g.num_vertices();
  if (radius.size() != n) {
    throw std::invalid_argument("radius_stepping_bst: radius size mismatch");
  }
  if (source >= n) throw std::invalid_argument("radius_stepping_bst: source");

  RunStats local;
  std::vector<Dist> dist(n, kInfDist);
  // settled[v]: v is in the current or a previous A_i (the paper's flag).
  std::vector<char> settled(n, 0);
  // stamp[v] == substep: v was updated in this substep, and old_dist[v]
  // holds its distance from before the substep.
  std::vector<std::size_t> stamp(n, 0);
  std::vector<Dist> old_dist(n);

  dist[source] = 0;
  settled[source] = 1;
  local.settled = 1;

  // Lines 3-4: seed Q and R with the source's relaxed neighbours.
  OrderedSet q;  // {(delta(v), v)} for the inactive frontier
  OrderedSet r;  // {(delta(v) + r(v), v)}, same membership as Q
  for (EdgeId e = g.first_arc(source); e < g.last_arc(source); ++e) {
    const Vertex v = g.arc_target(e);
    if (v == source) continue;
    const Dist nd = g.arc_weight(e);
    if (nd < dist[v]) {
      if (dist[v] != kInfDist) {
        q.erase({dist[v], v});
        r.erase({dist[v] + radius[v], v});
      }
      dist[v] = nd;
      q.insert({nd, v});
      r.insert({nd + radius[v], v});
      ++local.relaxations;
    }
  }

  const int nw = num_workers();
  std::vector<std::vector<std::pair<Vertex, Dist>>> proposals(
      static_cast<std::size_t>(nw));
  std::vector<Key> moved, r_moved, q_remove, r_remove, q_insert, r_insert;
  std::vector<Vertex> active, next_active, touched;
  std::size_t substep = 0;
  Dist prev_di = 0;

  while (!q.empty()) {
    ++local.steps;

    // Line 6: d_i = min of R.
    const Dist di = r.min().first;

    // Line 7: A_i = Q.split(d_i); Line 8: drop A_i's keys from R.
    q.split_leq({di, kNoVertex}).to_vector(moved);
    active.clear();
    r_moved.clear();
    for (const auto& [d, v] : moved) {
      active.push_back(v);
      settled[v] = 1;
      r_moved.push_back({d + radius[v], v});
    }
    std::sort(r_moved.begin(), r_moved.end());
    r.subtract(OrderedSet::from_sorted(r_moved));
    // R's minimum is delta(v) + r(v) >= delta(v) for some frontier v, so the
    // split must free at least that vertex; an empty active set means Q and
    // R lost sync (a structural bug, not an input condition).
    if (active.empty()) {
      throw std::logic_error("radius_stepping_bst: Q/R inconsistency");
    }
    local.settled += active.size();
    local.max_active = std::max(local.max_active, active.size());

    // Lines 9-19: substeps. Each substep gathers relaxation proposals
    // (Jacobi-style, from the pre-substep distances), applies them, and
    // pushes the Q/R updates as batched set operations.
    std::size_t substeps_this_step = 0;
    while (!active.empty()) {
      ++substeps_this_step;
      ++substep;
      for (auto& mine : proposals) mine.clear();
#pragma omp parallel num_threads(nw)
      {
        auto& mine = proposals[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(dynamic, 64)
        for (std::int64_t i = 0; i < static_cast<std::int64_t>(active.size());
             ++i) {
          const Vertex u = active[static_cast<std::size_t>(i)];
          const Dist du = dist[u];
          for (EdgeId e = g.first_arc(u); e < g.last_arc(u); ++e) {
            const Vertex v = g.arc_target(e);
            const Dist dv = dist[v];
            if (dv <= prev_di) continue;  // v in S_{i-1}: final
            const Dist nd = du + g.arc_weight(e);
            if (nd < dv) mine.push_back({v, nd});
          }
        }
      }

      // Apply the batch sequentially; the bulk union/difference below are
      // the paper's batched set updates.
      touched.clear();
      for (const auto& mine : proposals) {
        for (const auto& [v, nd] : mine) {
          if (nd >= dist[v]) continue;  // superseded within the batch
          if (stamp[v] != substep) {
            stamp[v] = substep;
            old_dist[v] = dist[v];
            touched.push_back(v);
          }
          dist[v] = nd;
          ++local.relaxations;
        }
      }

      // Classify touched vertices and build the Q/R batch updates.
      q_remove.clear();
      r_remove.clear();
      q_insert.clear();
      r_insert.clear();
      next_active.clear();
      for (const Vertex v : touched) {
        const Dist nd = dist[v];
        const Dist od = old_dist[v];
        if (settled[v] != 0) {
          // Already in A_i: improved again within the annulus; re-relax.
          next_active.push_back(v);
          continue;
        }
        if (od != kInfDist) {
          q_remove.push_back({od, v});
          r_remove.push_back({od + radius[v], v});
        }
        if (nd <= di) {
          // Lines 11-14: migrate from Q/R into A_i.
          settled[v] = 1;
          next_active.push_back(v);
          ++local.settled;
        } else {
          q_insert.push_back({nd, v});
          r_insert.push_back({nd + radius[v], v});
        }
      }
      std::sort(q_remove.begin(), q_remove.end());
      std::sort(r_remove.begin(), r_remove.end());
      std::sort(q_insert.begin(), q_insert.end());
      std::sort(r_insert.begin(), r_insert.end());
      q.subtract(OrderedSet::from_sorted(q_remove));
      r.subtract(OrderedSet::from_sorted(r_remove));
      q.union_with(OrderedSet::from_sorted(q_insert));
      r.union_with(OrderedSet::from_sorted(r_insert));

      active.swap(next_active);
      local.max_active = std::max(local.max_active, active.size());
    }
    local.substeps += substeps_this_step;
    local.max_substeps_in_step =
        std::max(local.max_substeps_in_step, substeps_this_step);
    prev_di = di;
  }

  local.touched = static_cast<std::size_t>(std::count_if(
      dist.begin(), dist.end(), [](Dist d) { return d != kInfDist; }));
  if (stats != nullptr) *stats = local;
  return dist;
}

}  // namespace rs
