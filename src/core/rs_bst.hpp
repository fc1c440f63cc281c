// Radius-Stepping, Algorithm 2: the paper's ordered-set formulation, kept
// as a full-output reference.
//
// Two ordered sets Q (tentative distances) and R (tentative distance +
// vertex radius); the round distance d_i is R's minimum, the active set
// A_i is Q.split(d_i), and each substep's batch of successful relaxations
// is applied to Q and R with bulk difference / union operations — the
// O(log n)-per-update bookkeeping the work/depth analysis (Lemma 3.9)
// charges.
//
// Queries are served by the flat engine (core/radius_stepping.hpp). This
// reference computes identical distances AND an identical step sequence;
// tests assert both. Each call owns its sets and per-vertex arrays.
#pragma once

#include <vector>

#include "core/stats.hpp"
#include "graph/graph.hpp"

namespace rs {

/// Algorithm 2 on the join-based treap (pset/treap.hpp): O(p log q) bulk
/// set operations, task-parallel on large batches. Each substep gathers
/// its relaxation proposals over num_workers() threads. Returns the full
/// distance vector.
std::vector<Dist> radius_stepping_bst(const Graph& g, Vertex source,
                                      const std::vector<Dist>& radius,
                                      RunStats* stats = nullptr);

}  // namespace rs
