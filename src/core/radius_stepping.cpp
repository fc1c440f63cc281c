#include "core/radius_stepping.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>

#include <omp.h>

#include "parallel/primitives.hpp"
#include "parallel/write_min.hpp"

namespace rs {

namespace {

using TraceClock = std::chrono::steady_clock;
using Worker = QueryContext::WorkerScratch;
using Search = QueryContext::Search;

std::uint64_t phase_ns(TraceClock::time_point a, TraceClock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// The passes of Algorithm 1 that both bodies run per worker, each over
/// the worker's own WorkerScratch in one Search. Both bodies produce
/// identical distances and an identical step sequence: by the end of a
/// step every vertex settled in it has relaxed its out-arcs with its final
/// value, so step-boundary distances — and with them the frontier, d_i,
/// steps, and settled counts — are schedule-independent. Substep counts
/// are NOT: relaxations read neighbor distances live (chaotic relaxation),
/// so how fast a step converges internally depends on processing order.
/// Only Theorem 3.2's k+2 upper bound is invariant.
///
/// Every vertex is settled, classified and kept in the frontier by exactly
/// one worker at a time (claims are unique per substep, frontier segments
/// are disjoint), so the settled, mark and target stamps stay plain; each
/// worker counts what it settled and which targets it took, and the
/// bodies combine the counts at step boundaries.
class Phases {
 public:
  Phases(const Graph& g, const std::vector<Dist>& radius, QueryContext& ctx,
         Search& search)
      : g_(g),
        radius_(radius),
        ctx_(ctx),
        search_(search),
        dist_(search.dist()),
        targeted_(ctx.has_targets()),
        k_goal_(ctx.k_goal()) {}

  Dist load(Vertex v) const { return dist_[v].load(std::memory_order_relaxed); }

  /// Joins this search to a bidirectional run: the kMeet forms of seed()
  /// and relax() lower `meeting` on every original arc whose far end
  /// `other` has settled. `backward` says which end of such an arc is
  /// this search's (Meeting keeps the forward end first).
  void meet(const Search& other, Meeting& meeting, bool backward) {
    other_ = &other;
    meeting_ = &meeting;
    backward_ = backward;
  }

  /// Line 2, single-threaded: settles the source, relaxes its out-arcs
  /// into `me`'s frontier segment and takes the segment's Line 4 min of
  /// delta(v) + r(v) (`pending_di`). Frontier membership is deduplicated
  /// with mark stamps under one epoch for the whole query: a vertex only
  /// ever leaves the frontier by settling, which is final (Theorem 3.1),
  /// so "has ever been a frontier candidate" is exactly "must not
  /// re-enter". The frontier is a set; no order matters to the step
  /// sequence, so it is never sorted.
  template <bool kMeet = false>
  void seed(Worker& me, Vertex source) {
    dist_[source].store(0, std::memory_order_relaxed);
    me.touched.push_back(source);
    settle(me, source);
    search_.next_mark_epoch();
    me.edges_scanned += g_.last_arc(source) - g_.first_arc(source);
    const EdgeId cut = g_.first_shortcut_arc(source);
    for (EdgeId e = g_.first_arc(source); e < g_.last_arc(source); ++e) {
      const Vertex v = g_.arc_target(e);
      if (v == source) continue;
      const auto w = static_cast<Dist>(g_.arc_weight(e));
      if constexpr (kMeet) {
        if (e < cut) lower_mu(source, v, w);
      }
      const Dist dv = load(v);
      if (w < dv) {
        dist_[v].store(w, std::memory_order_relaxed);
        ++me.relaxations;
        if (dv == kInfDist) me.touched.push_back(v);
      }
      if (!search_.is_settled(v) && search_.mark(v)) me.frontier.push_back(v);
    }
    Dist di = kInfDist;
    for (const Vertex v : me.frontier) di = std::min(di, load(v) + radius_[v]);
    me.pending_di = di;
  }

  /// Lines 6-8 for one active vertex u: relaxes every original arc, then
  /// walks u's weight-sorted shortcut segment and stops at the first arc
  /// that lands beyond d_i. A skipped shortcut can only reach a vertex
  /// whose final distance an original-arc path supplies (merge_edges'
  /// precondition), and Theorem 3.2's <= k-hop paths never land beyond
  /// d_i, so neither distances nor steps change (docs/ARCHITECTURE.md).
  /// kShared selects the sharing mode: WriteMin and an atomic claim for
  /// the parallel body, plain stores and claim_sequential for the
  /// sequential one. kMeet (sequential only) lowers mu on each original
  /// arc before Line 7's filter. Counts successful lowerings into
  /// `relaxations`; returns the arcs examined, including the one that
  /// ends the scan.
  template <bool kShared, bool kMeet = false>
  std::size_t relax(Worker& me, Vertex u, Dist di, Dist prev_di,
                    std::size_t& relaxations) {
    static_assert(!(kShared && kMeet), "bidirectional runs are sequential");
    const Dist du = load(u);
    const auto relax_arc = [&](Vertex v, Dist nd) {
      // Line 7 relaxes targets outside S_{i-1} only; vertices settled in
      // *this* step may still improve while the annulus converges, so
      // they stay relaxable. One load serves both tests.
      const Dist dv = load(v);
      if (dv <= prev_di || nd >= dv) return;
      Dist before = dv;
      if constexpr (kShared) {
        if (!write_min(dist_[v], nd, before)) return;
      } else {
        dist_[v].store(nd, std::memory_order_relaxed);
      }
      ++relaxations;
      if (before == kInfDist) me.touched.push_back(v);
      if (kShared ? search_.claim(v) : search_.claim_sequential(v)) {
        me.claimed.push_back(v);
      }
    };
    const EdgeId first = g_.first_arc(u);
    const EdgeId cut = g_.first_shortcut_arc(u);
    const EdgeId last = g_.last_arc(u);
    for (EdgeId e = first; e < cut; ++e) {
      const Vertex v = g_.arc_target(e);
      const Dist nd = du + g_.arc_weight(e);
      if constexpr (kMeet) lower_mu(u, v, nd);
      relax_arc(v, nd);
    }
    for (EdgeId e = cut; e < last; ++e) {
      const Dist nd = du + g_.arc_weight(e);
      if (nd > di) return e + 1 - first;
      relax_arc(g_.arc_target(e), nd);
    }
    return last - first;
  }

  /// First substep's active set from `me`'s frontier segment: every
  /// vertex with delta <= d_i. They are settled the moment they appear.
  void gather(Worker& me, Dist di) {
    me.active.clear();
    for (const Vertex v : me.frontier) {
      if (load(v) <= di) {
        me.active.push_back(v);
        settle(me, v);
      }
    }
  }

  /// The A_i/B_i partition of the vertices `me` claimed in the last
  /// substep: inside d_i -> `me`'s next active list (settled on first
  /// arrival); beyond d_i -> frontier candidates.
  void classify(Worker& me, Dist di) {
    me.active.clear();
    for (const Vertex v : me.claimed) {
      if (load(v) <= di) {
        me.active.push_back(v);
        if (!search_.is_settled(v)) settle(me, v);
      } else if (!search_.is_settled(v) && search_.mark(v)) {
        me.newly_frontier.push_back(v);
      }
    }
    me.claimed.clear();
  }

  /// Rebuilds `me`'s frontier segment: drops settled vertices, adds the
  /// step's arrivals, and folds the next step's d_i contribution into the
  /// same pass (distances cannot change before the next Line 4). Every
  /// member was marked on first insertion, so the two lists are disjoint
  /// and individually duplicate-free.
  void rebuild(Worker& me) {
    me.next.clear();
    Dist di = kInfDist;
    const auto keep = [&](Vertex v) {
      if (search_.is_settled(v)) return;
      me.next.push_back(v);
      di = std::min(di, load(v) + radius_[v]);
    };
    for (const Vertex v : me.frontier) keep(v);
    for (const Vertex v : me.newly_frontier) keep(v);
    me.newly_frontier.clear();
    me.frontier.swap(me.next);
    me.pending_di = di;
  }

  /// Exactness of both exits holds only at STEP boundaries (Theorem 3.1):
  /// targets all settled, or — for kTopK — at least k vertices settled,
  /// which makes the k smallest settled (dist, vertex) pairs exactly the k
  /// nearest. Reads the counts of workers [0, nw), which must not change
  /// while any worker reads.
  bool goals_met(const std::vector<Worker>& workers, int nw) const {
    std::size_t settled = 0;
    std::size_t taken = 0;
    for (int t = 0; t < nw; ++t) {
      settled += workers[static_cast<std::size_t>(t)].settled;
      taken += workers[static_cast<std::size_t>(t)].targets_taken;
    }
    if (targeted_ && taken == ctx_.targets_remaining()) return true;
    return k_goal_ != 0 && settled >= k_goal_;
  }

  /// Sums the counts of workers [0, nw) into `local` and the context.
  void finish(const std::vector<Worker>& workers, int nw,
              RunStats& local) const {
    std::size_t taken = 0;
    for (int t = 0; t < nw; ++t) {
      const Worker& w = workers[static_cast<std::size_t>(t)];
      local.settled += w.settled;
      local.relaxations += w.relaxations;
      local.edges_scanned += w.edges_scanned;
      taken += w.targets_taken;
    }
    ctx_.count_taken_targets(taken);
  }

  bool timed() const { return ctx_.trace_phases(); }
  Search& search() const { return search_; }

 private:
  void settle(Worker& me, Vertex v) {
    search_.mark_settled(v);
    ++me.settled;
    if (targeted_ && ctx_.take_target(v)) ++me.targets_taken;
  }

  /// The meeting hook: this search reached `v` over an original arc at
  /// `nd`, and the other search has settled `v` (final: it stands at a
  /// step boundary), so a path of length nd + its distance exists.
  void lower_mu(Vertex u, Vertex v, Dist nd) {
    if (!other_->is_settled(v)) return;
    const Dist total = nd + other_->read_dist(v);
    if (total >= meeting_->dist) return;
    *meeting_ = backward_ ? Meeting{total, v, u} : Meeting{total, u, v};
  }

  const Graph& g_;
  const std::vector<Dist>& radius_;
  QueryContext& ctx_;
  Search& search_;
  std::atomic<Dist>* dist_;
  const bool targeted_;
  const std::size_t k_goal_;
  const Search* other_ = nullptr;
  Meeting* meeting_ = nullptr;
  bool backward_ = false;
};

/// Lines 4-9 of one step on the calling thread: takes d_i from `me`'s
/// frontier (computed by the last seed or rebuild), gathers A_i and runs
/// Bellman-Ford substeps until no delta(v) <= d_i changes. Returns d_i;
/// the caller rebuilds the frontier. Both sequential drivers step through
/// it; kMeet makes the substeps of a bidirectional run lower mu.
///
/// Traced requests take two clock readings per substep (relax end is
/// partition start, so the phases tile the substep); untraced runs take
/// none — the disabled path costs one predictable branch per substep.
template <bool kMeet>
Dist step_sequential(Phases& phases, Worker& me, Dist prev_di,
                     RunStats& local) {
  const bool timed = phases.timed();
  ++local.steps;
  const Dist di = me.pending_di;  // Line 4
  phases.gather(me, di);
  local.max_active = std::max(local.max_active, me.active.size());

  // Lines 5-9: Bellman-Ford substeps until no delta(v) <= d_i changes.
  std::size_t substeps_this_step = 0;
  while (!me.active.empty()) {
    ++substeps_this_step;
    // One claim epoch per substep: each updated vertex is collected once
    // no matter how many relaxations hit it.
    phases.search().next_claim_epoch();
    const auto t_relax = timed ? TraceClock::now() : TraceClock::time_point{};
    std::size_t relaxations = 0;
    std::size_t scanned = 0;
    for (const Vertex u : me.active) {
      scanned += phases.relax<false, kMeet>(me, u, di, prev_di, relaxations);
    }
    me.relaxations += relaxations;
    me.edges_scanned += scanned;
    const auto t_drain = timed ? TraceClock::now() : TraceClock::time_point{};
    if (timed) local.relax_ns += phase_ns(t_relax, t_drain);
    phases.classify(me, di);
    local.max_active = std::max(local.max_active, me.active.size());
    if (timed) local.partition_ns += phase_ns(t_drain, TraceClock::now());
  }
  // Loop iterations equal Algorithm 1's repeat-until iterations: the
  // final iteration relaxes the last-updated vertices and observes no
  // further update with delta <= d_i (the Line 9 exit), so no extra
  // "observation" substep is added.
  local.substeps += substeps_this_step;
  local.max_substeps_in_step =
      std::max(local.max_substeps_in_step, substeps_this_step);
  return di;
}

/// Algorithm 1 on the calling thread: plain loads/stores, no CAS, no
/// OpenMP regions — it must be nestable inside an outer parallel region
/// (the batch scheduler runs one per worker), and it is what a
/// one-worker context runs.
///
/// Targeted early termination: when ctx.has_targets(), the run stops at
/// the first STEP boundary with every stamped target settled. Vertices
/// marked settled mid-step can still improve while the annulus converges,
/// so the check only ever fires between steps, where Theorem 3.1 makes
/// every settled distance final — the exit is exact.
void run_sequential(const Graph& g, Vertex source,
                    const std::vector<Dist>& radius, QueryContext& ctx,
                    RunStats& local) {
  Phases phases(g, radius, ctx, ctx.search());
  std::vector<Worker>& workers = ctx.search().workers(1);
  Worker& me = workers[0];

  phases.seed(me, source);
  // Round distance of the previous step (d_{i-1}). Vertices with
  // delta <= prev_di are exactly S_{i-1} (Theorem 3.1): final, safe to skip
  // as relaxation targets. d_0 = 0 covers the source.
  Dist prev_di = 0;
  // The entry check covers requests whose targets are already settled
  // (source-only target sets); the per-step check is at the bottom.
  while (!me.frontier.empty()) {
    if (phases.goals_met(workers, 1)) {
      local.early_exit = true;
      break;
    }
    const Dist di = step_sequential<false>(phases, me, prev_di, local);
    // Step boundary: every settled vertex is now final (Theorem 3.1), so a
    // run that has met its goal — all targets settled, or k vertices for a
    // top-k request — is done; skip the frontier rebuild entirely.
    if (phases.goals_met(workers, 1)) {
      local.early_exit = true;
      break;
    }
    phases.rebuild(me);
    prev_di = di;
  }
  phases.finish(workers, 1, local);
}

/// Two sequential searches that meet (see radius_stepping_meet). Each side
/// is an ordinary run of Algorithm 1 advanced one whole step at a time, so
/// at every step boundary the vertices a side has settled are exactly
/// those within its last step radius, with final distances (Theorem 3.1).
/// mu starts infinite and is lowered on the original arcs the seeds and
/// the substeps scan; the run stops at the first boundary where the two
/// radii reach it, which makes mu = d(source, target)
/// (docs/ARCHITECTURE.md). Stepping the side with the smaller frontier
/// keeps the two balls growing at the same cost rather than the same
/// radius.
Meeting run_meet(const Graph& g, Vertex source, Vertex target,
                 const std::vector<Dist>& radius, QueryContext& ctx,
                 RunStats& local) {
  Search& fs = ctx.search();
  Search& bs = ctx.backward();
  Meeting meeting;
  Phases fwd(g, radius, ctx, fs);
  Phases bwd(g, radius, ctx, bs);
  fwd.meet(bs, meeting, /*backward=*/false);
  bwd.meet(fs, meeting, /*backward=*/true);
  std::vector<Worker>& fw = fs.workers(1);
  std::vector<Worker>& bw = bs.workers(1);
  Worker& f = fw[0];
  Worker& b = bw[0];

  // The backward seed scans the target's arcs with the source already
  // settled, so an arc between them lowers mu.
  fwd.seed<true>(f, source);
  bwd.seed<true>(b, target);
  if (source == target) meeting = Meeting{0, source, target};
  // Radius of each side's last step (0 after the seed).
  Dist df = 0;
  Dist db = 0;
  while (!f.frontier.empty() && !b.frontier.empty()) {
    if (df + db >= meeting.dist) {
      local.early_exit = true;
      break;
    }
    if (f.frontier.size() <= b.frontier.size()) {
      df = step_sequential<true>(fwd, f, df, local);
      fwd.rebuild(f);
    } else {
      db = step_sequential<true>(bwd, b, db, local);
      bwd.rebuild(b);
    }
  }
  fwd.finish(fw, 1, local);
  bwd.finish(bw, 1, local);
  return meeting;
}

/// Vertices per chunk of a parallel relax phase: large enough to amortize
/// the cursor's atomic add, small enough to balance a hub-heavy list.
constexpr std::size_t kRelaxChunk = 64;

/// Total size of the active lists of workers [0, nw).
std::size_t active_total(const std::vector<Worker>& workers, int nw) {
  std::size_t total = 0;
  for (int t = 0; t < nw; ++t) {
    total += workers[static_cast<std::size_t>(t)].active.size();
  }
  return total;
}

/// Calls `f` on every vertex of the chunks of `list` this worker takes
/// through `cursor`, until the list is drained. Each kRelaxChunk-vertex
/// chunk goes to exactly one of the workers sharing the cursor.
template <typename F>
void take_chunks(const std::vector<Vertex>& list,
                 std::atomic<std::size_t>& cursor, F&& f) {
  const std::size_t size = list.size();
  // The plain load keeps a drained list's cursor line shared instead of
  // bouncing it between thieves.
  while (cursor.load(std::memory_order_relaxed) < size) {
    const std::size_t begin =
        cursor.fetch_add(kRelaxChunk, std::memory_order_relaxed);
    const std::size_t end = std::min(begin + kRelaxChunk, size);
    for (std::size_t i = begin; i < end; ++i) f(list[i]);
  }
}

/// Algorithm 1 on `nw` workers in one OpenMP region per query. Each worker
/// owns a frontier segment, a claim bucket, an active list with its chunk
/// cursor, and a newly-frontier list; every pass of a step is split
/// across workers:
///
///   Line 4   each worker reads every segment's pending d_i (computed by
///            the previous rebuild) and gathers A_i from its own segment;
///            barrier.
///   substep  owner-first relaxation: each worker takes kRelaxChunk-vertex
///            chunks of its own active list through that list's cursor,
///            then steals chunks from the other workers' cursors until
///            every list is drained; barrier. Then each worker classifies
///            the vertices it claimed into its next active or
///            newly-frontier list; barrier.
///   boundary every worker evaluates the goals on the same combined
///            counts, rebuilds its own segment; barrier.
///
/// A worker's active list holds the vertices it claimed, so their
/// distance and claim words are mostly still in its cache; stealing only
/// moves the tail of a long list, which is what balances hub vertices.
/// Every chunk is taken exactly once, whoever takes it, so each active
/// vertex is relaxed once per substep, as under any other split: claims
/// stay unique and every first touch is recorded once.
///
/// Every decision (step loop, substep loop, exit) is taken by every worker
/// on values no worker writes until after the next barrier, so the team
/// always leaves the loops together. Same step semantics and early exits
/// as run_sequential.
void run_parallel(const Graph& g, Vertex source,
                  const std::vector<Dist>& radius, QueryContext& ctx,
                  RunStats& local, int nw) {
  Search& search = ctx.search();
  Phases phases(g, radius, ctx, search);
  std::vector<Worker>& workers = search.workers(nw);
  std::vector<QueryContext::ChunkCursor>& cursors = ctx.cursors(nw);
  const bool timed = ctx.trace_phases();

  phases.seed(workers[0], source);
  // run_sequential's entry check, taken before the region: inside it the
  // goals are only read at step boundaries.
  const bool stepping = !workers[0].frontier.empty();
  if (!stepping || phases.goals_met(workers, nw)) {
    local.early_exit = stepping;
    phases.finish(workers, nw, local);
    return;
  }
  // Claims of the first substep need an epoch no earlier claim used; the
  // lead worker bumps it after every relax phase from then on.
  search.next_claim_epoch();

#pragma omp parallel num_threads(nw)
  {
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    const bool lead = tid == 0;  // keeps `local` and the claim epoch
    Worker& me = workers[tid];
    // Reset whenever `me.active` is refilled; no worker takes a chunk
    // until the barrier that follows.
    std::atomic<std::size_t>& my_cursor = cursors[tid].next;
    Dist prev_di = 0;  // d_{i-1}: delta <= prev_di is S_{i-1}, final
    for (;;) {
      // Line 4: d_i = min over the frontier of delta(v) + r(v).
      Dist di = kInfDist;
      std::size_t frontier_size = 0;
      for (int t = 0; t < nw; ++t) {
        const Worker& w = workers[static_cast<std::size_t>(t)];
        di = std::min(di, w.pending_di);
        frontier_size += w.frontier.size();
      }
      if (frontier_size == 0) break;
      if (lead) ++local.steps;
      phases.gather(me, di);
      my_cursor.store(0, std::memory_order_relaxed);
#pragma omp barrier
      std::size_t active = active_total(workers, nw);
      auto t_relax =
          timed && lead ? TraceClock::now() : TraceClock::time_point{};

      // Lines 5-9: Bellman-Ford substeps until no delta(v) <= d_i changes.
      std::size_t substeps_this_step = 0;
      while (active > 0) {
        ++substeps_this_step;
        if (lead) local.max_active = std::max(local.max_active, active);
        std::size_t relaxations = 0;
        std::size_t scanned = 0;
        const auto relax = [&](Vertex u) {
          scanned += phases.relax<true>(me, u, di, prev_di, relaxations);
        };
        // Own list first, then the others' in ring order.
        for (std::size_t s = 0; s < static_cast<std::size_t>(nw); ++s) {
          const std::size_t owner = (tid + s) % static_cast<std::size_t>(nw);
          take_chunks(workers[owner].active, cursors[owner].next, relax);
        }
        me.relaxations += relaxations;
        me.edges_scanned += scanned;
#pragma omp barrier
        const auto t_drain =
            timed && lead ? TraceClock::now() : TraceClock::time_point{};
        if (lead) {
          if (timed) local.relax_ns += phase_ns(t_relax, t_drain);
          search.next_claim_epoch();  // nobody claims until the next relax
        }
        phases.classify(me, di);
        my_cursor.store(0, std::memory_order_relaxed);
#pragma omp barrier
        active = active_total(workers, nw);
        if (timed && lead) {
          t_relax = TraceClock::now();
          local.partition_ns += phase_ns(t_drain, t_relax);
        }
      }
      if (lead) {
        local.substeps += substeps_this_step;
        local.max_substeps_in_step =
            std::max(local.max_substeps_in_step, substeps_this_step);
      }
      // Step boundary (see run_sequential). The counts are stable until
      // the next gather, which follows the rebuild barrier.
      if (phases.goals_met(workers, nw)) {
        if (lead) local.early_exit = true;
        break;
      }
      phases.rebuild(me);
      prev_di = di;
#pragma omp barrier
    }
  }
  phases.finish(workers, nw, local);
}

}  // namespace

void radius_stepping_partial(const Graph& g, Vertex source,
                             const std::vector<Dist>& radius,
                             QueryContext& ctx, RunStats* stats) {
  const Vertex n = g.num_vertices();
  if (radius.size() != n) {
    throw std::invalid_argument("radius_stepping: radius size mismatch");
  }
  if (source >= n) {
    throw std::invalid_argument("radius_stepping: bad source");
  }

  ctx.begin_query(n);
  RunStats local;
  const int nw = num_workers();
  if (ctx.sequential() || nw == 1) {
    run_sequential(g, source, radius, ctx, local);
  } else {
    run_parallel(g, source, radius, ctx, local, nw);
  }
  local.touched = ctx.search().touched_count();
  if (stats != nullptr) *stats = local;
}

Meeting radius_stepping_meet(const Graph& g, Vertex source, Vertex target,
                             const std::vector<Dist>& radius,
                             QueryContext& ctx, RunStats* stats) {
  const Vertex n = g.num_vertices();
  if (radius.size() != n) {
    throw std::invalid_argument("radius_stepping_meet: radius size mismatch");
  }
  if (source >= n || target >= n) {
    throw std::invalid_argument("radius_stepping_meet: bad endpoint");
  }

  // mu replaces target stamps and top-k goals: none may stop either side.
  ctx.clear_targets();
  ctx.begin_query(n);
  ctx.backward().begin(n);
  RunStats local;
  const Meeting meeting = run_meet(g, source, target, radius, ctx, local);
  local.touched =
      ctx.search().touched_count() + ctx.backward().touched_count();
  if (stats != nullptr) *stats = local;
  return meeting;
}

void radius_stepping(const Graph& g, Vertex source,
                     const std::vector<Dist>& radius, QueryContext& ctx,
                     std::vector<Dist>& out, RunStats* stats) {
  // A full distance vector must come from an exhaustive run: stale target
  // stamps on a reused context must never truncate it.
  ctx.clear_targets();
  radius_stepping_partial(g, source, radius, ctx, stats);
  ctx.finish_query(g.num_vertices(), out);
}

std::vector<Dist> radius_stepping(const Graph& g, Vertex source,
                                  const std::vector<Dist>& radius,
                                  RunStats* stats) {
  QueryContext ctx(g.num_vertices());
  std::vector<Dist> out;
  radius_stepping(g, source, radius, ctx, out, stats);
  return out;
}

}  // namespace rs
