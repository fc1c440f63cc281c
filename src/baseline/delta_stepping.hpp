// Meyer & Sanders' Delta-stepping (J. Algorithms 2003) — the practical
// baseline Radius-Stepping is designed to out-bound: fixed step width
// Delta, light/heavy edge split, bucketed frontier.
#pragma once

#include <cstddef>
#include <vector>

#include "core/query_context.hpp"
#include "graph/graph.hpp"

namespace rs {

struct DeltaSteppingStats {
  std::size_t buckets_processed = 0;  // outer steps (nonempty buckets)
  std::size_t phases = 0;             // inner light-edge substeps
  std::size_t relaxations = 0;        // arcs relaxed (attempted)
};

/// Delta-stepping SSSP. Relaxations within a phase run in parallel with
/// atomic WriteMin; bucket bookkeeping is sequential (the standard
/// shared-memory formulation). `delta = 0` picks the common heuristic
/// Delta = max(1, L / max_degree).
std::vector<Dist> delta_stepping(const Graph& g, Vertex source,
                                 Dist delta = 0,
                                 DeltaSteppingStats* stats = nullptr);

/// Context-reusing form: identical results; distances, bucket slots,
/// frontier lists, and per-phase collection buffers all live in `ctx`.
/// At num_workers() == 1 (one worker, or a call from inside an active
/// OpenMP region) the phases run on the calling thread with no region.
void delta_stepping(const Graph& g, Vertex source, QueryContext& ctx,
                    std::vector<Dist>& out, Dist delta = 0,
                    DeltaSteppingStats* stats = nullptr);

}  // namespace rs
