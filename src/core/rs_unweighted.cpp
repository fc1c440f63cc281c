#include "core/rs_unweighted.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include <omp.h>

#include "parallel/primitives.hpp"

namespace rs {

namespace {

/// BFS-regime Radius-Stepping over a QueryContext. `Par` selects parallel
/// level expansion (CAS claims) or the strictly sequential twin used by
/// the batch scheduler and by one-worker contexts (no atomics, no OpenMP
/// regions). One claim epoch spans the whole query: a vertex is claimed
/// when first reached, which is final for unit weights.
///
/// Targeted early termination: with unit weights a claimed vertex's level
/// is already final, so the run may stop right after the level expansion
/// that claims the last stamped target — finer-grained than the weighted
/// engines' step-boundary exit, and still exact. The bookkeeping lives in
/// the sequential level-stamping pass, so no atomics are needed.
template <bool Par>
void rs_unweighted_run(const Graph& g, Vertex source,
                       const std::vector<Dist>& radius, QueryContext& ctx,
                       RunStats& local) {
  std::atomic<Dist>* dist = ctx.dist();
  const bool targeted = ctx.has_targets();
  const int nw = Par ? num_workers() : 1;
  std::vector<QueryContext::WorkerScratch>& workers = ctx.workers(nw);
  // First-touch records: every distance store happens in the sequential
  // level-stamping pass over freshly-claimed vertices (claims are
  // exactly-once per query), so worker 0's list suffices even in the Par
  // twin.
  std::vector<Vertex>& touch = workers[0].touched;
  ctx.next_claim_epoch();
  if constexpr (Par) {
    ctx.claim(source);
  } else {
    ctx.claim_sequential(source);
  }
  dist[source].store(0, std::memory_order_relaxed);
  touch.push_back(source);
  if (targeted) ctx.note_target_settled(source);
  local.settled = 1;

  std::vector<Vertex>& frontier = ctx.frontier();
  std::vector<Vertex>& next = ctx.next();
  frontier.clear();
  next.clear();

  // Expands `from` (all at hop `level - 1`) by one BFS level into `into`.
  const auto expand = [&](const std::vector<Vertex>& from,
                          std::vector<Vertex>& into, Dist level) {
    if constexpr (Par) {
      std::size_t scanned = 0;
#pragma omp parallel num_threads(nw) reduction(+ : scanned)
      {
        auto& mine =
            workers[static_cast<std::size_t>(omp_get_thread_num())].claimed;
#pragma omp for schedule(dynamic, 64)
        for (std::int64_t i = 0; i < static_cast<std::int64_t>(from.size());
             ++i) {
          const Vertex u = from[static_cast<std::size_t>(i)];
          scanned += g.degree(u);
          for (const Vertex v : g.neighbors(u)) {
            if (ctx.claim(v)) mine.push_back(v);
          }
        }
      }
      local.edges_scanned += scanned;
      std::size_t total = 0;
      for (int t = 0; t < nw; ++t) {
        total += workers[static_cast<std::size_t>(t)].claimed.size();
      }
      into.clear();
      into.reserve(total);
      for (int t = 0; t < nw; ++t) {
        auto& b = workers[static_cast<std::size_t>(t)].claimed;
        into.insert(into.end(), b.begin(), b.end());
        b.clear();
      }
    } else {
      into.clear();
      for (const Vertex u : from) {
        local.edges_scanned += g.degree(u);
        for (const Vertex v : g.neighbors(u)) {
          if (ctx.claim_sequential(v)) into.push_back(v);
        }
      }
    }
    for (const Vertex v : into) {
      dist[v].store(level, std::memory_order_relaxed);
      touch.push_back(v);
      if (targeted) ctx.note_target_settled(v);
    }
    local.relaxations += into.size();
  };
  // Goal check: all stamped targets claimed, or — kTopK — at least k
  // vertices claimed. Claims only ever complete whole BFS levels, so every
  // claimed vertex is final AND every unclaimed vertex is strictly farther
  // than every claimed one; the exits (including the mid-step one) stay
  // exact. Claimed count = settled-so-far + the current uncounted
  // frontier.
  const std::size_t k_goal = ctx.k_goal();
  const auto targets_done = [&] {
    if (targeted && ctx.targets_remaining() == 0) return true;
    return k_goal != 0 && local.settled + frontier.size() >= k_goal;
  };

  // Seed: one expansion from the source (reuses the active list as a
  // single-element frontier).
  std::vector<Vertex>& seed = ctx.active();
  seed.clear();
  seed.push_back(source);
  expand(seed, frontier, 1);
  Dist level = 1;  // hop distance of the current frontier

  while (!frontier.empty()) {
    if (targets_done()) {
      local.early_exit = true;
      break;
    }
    ++local.steps;
    // d_i = min over the frontier of delta(v) + r(v); all deltas == level.
    Dist min_r;
    if constexpr (Par) {
      min_r = parallel_min(std::size_t{0}, frontier.size(), kInfDist,
                           [&](std::size_t i) { return radius[frontier[i]]; });
    } else {
      min_r = kInfDist;
      for (const Vertex v : frontier) min_r = std::min(min_r, radius[v]);
    }
    const Dist di = level + min_r;

    // Settle levels level .. d_i, one parallel substep per level.
    std::size_t substeps_this_step = 0;
    while (!frontier.empty() && level <= di) {
      ++substeps_this_step;
      local.max_active = std::max(local.max_active, frontier.size());
      local.settled += frontier.size();
      expand(frontier, next, level + 1);
      frontier.swap(next);
      ++level;
      if (targets_done()) break;  // claimed == final: exit mid-step too
    }
    local.substeps += substeps_this_step;
    local.max_substeps_in_step =
        std::max(local.max_substeps_in_step, substeps_this_step);
  }
}

}  // namespace

void radius_stepping_unweighted_partial(const Graph& g, Vertex source,
                                        const std::vector<Dist>& radius,
                                        QueryContext& ctx, RunStats* stats) {
  const Vertex n = g.num_vertices();
  if (radius.size() != n) {
    throw std::invalid_argument("radius_stepping_unweighted: radius size");
  }
  if (source >= n) {
    throw std::invalid_argument("radius_stepping_unweighted: bad source");
  }

  ctx.begin_query(n);
  RunStats local;
  if (ctx.sequential() || num_workers() == 1) {
    rs_unweighted_run<false>(g, source, radius, ctx, local);
  } else {
    rs_unweighted_run<true>(g, source, radius, ctx, local);
  }
  local.touched = ctx.touched_count();
  if (stats != nullptr) *stats = local;
}

void radius_stepping_unweighted(const Graph& g, Vertex source,
                                const std::vector<Dist>& radius,
                                QueryContext& ctx, std::vector<Dist>& out,
                                RunStats* stats) {
  ctx.clear_targets();  // full output == exhaustive run, always
  radius_stepping_unweighted_partial(g, source, radius, ctx, stats);
  ctx.finish_query(g.num_vertices(), out);
}

std::vector<Dist> radius_stepping_unweighted(const Graph& g, Vertex source,
                                             const std::vector<Dist>& radius,
                                             RunStats* stats) {
  QueryContext ctx(g.num_vertices());
  std::vector<Dist> out;
  radius_stepping_unweighted(g, source, radius, ctx, out, stats);
  return out;
}

}  // namespace rs
