// Per-run instrumentation. Steps and substeps are the quantities the
// paper's evaluation reports (Tables 4-7 and Figures 4-5 are step counts;
// Theorem 3.2's k+2 bound is a substep count), so every engine records them.
//
// A bidirectional one-target run (radius_stepping_meet) is two searches:
// its counts are the sums over both, and its maxima the larger of the
// two sides' (each side's steps obey Theorem 3.2 on their own).
#pragma once

#include <cstddef>
#include <cstdint>

namespace rs {

struct RunStats {
  /// Outer while-loop iterations of Algorithm 1 (one d_i per step).
  std::size_t steps = 0;
  /// Total inner repeat-loop iterations across all steps.
  std::size_t substeps = 0;
  /// Largest number of substeps any single step needed; Theorem 3.2 bounds
  /// this by k + 2 on a (k, rho)-graph.
  std::size_t max_substeps_in_step = 0;
  /// Successful relaxations (tentative-distance improvements).
  std::size_t relaxations = 0;
  /// Arcs examined: the source's out-arcs, plus, for every active vertex
  /// in every substep, all of its original arcs and then its shortcut
  /// arcs up to and including the first one that lands beyond d_i (see
  /// Graph::first_shortcut_arc). On an unsplit graph that is every
  /// out-arc. The work the relaxations were drawn from.
  std::size_t edges_scanned = 0;
  /// Frontier entries read: every entry each Line 4 scan and each gather
  /// reads from the workers' frontier buckets (core/radius_stepping.cpp),
  /// stale ones included. Summed over both searches of a bidirectional run.
  std::size_t frontier_scanned = 0;
  /// Largest active set |A_i| seen.
  std::size_t max_active = 0;
  /// Vertices settled (== n reachable from the source on termination; a
  /// targeted early exit stops once every requested target is in here).
  /// Two searches that meet may both settle a vertex; it counts twice.
  std::size_t settled = 0;
  /// Vertices whose tentative distance left kInfDist during the run (the
  /// first-touch records; a targeted early exit's epilogue resets exactly
  /// these instead of sweeping all n — see QueryContext::reset_touched).
  /// Summed over both searches of a bidirectional run.
  std::size_t touched = 0;
  /// True when a targeted run stopped before exhausting the frontier —
  /// every requested target settled early (core/request.hpp semantics) —
  /// or, for two searches that meet, when the meeting rule stopped them
  /// before either frontier drained.
  bool early_exit = false;

  // Per-phase wall time, filled ONLY when the request is traced
  // (QueryContext::trace_phases; see obs/trace.hpp) — the RunStats hooks
  // the observability subsystem turns into engine-detail trace spans.
  // Zero on untraced runs: the engine takes no clock readings then.
  /// Relaxation substeps (Algorithm 1's inner loop).
  std::uint64_t relax_ns = 0;
  /// Frontier drain + A_i/B_i partitioning after each substep.
  std::uint64_t partition_ns = 0;
};

}  // namespace rs
