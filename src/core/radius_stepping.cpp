#include "core/radius_stepping.hpp"

#include <algorithm>
#include <array>
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

/// log2 of the frontier's bucket width Delta: half the median of a fixed
/// sample of radii, rounded down to a power of two (Delta >= 1), so a
/// bucket index is one shift. O(1) per query, and it depends on the radii
/// alone, so every worker count files the same vertex in the same bucket.
unsigned bucket_shift(const std::vector<Dist>& radius) {
  constexpr std::size_t kSample = 63;
  std::array<Dist, kSample> sample{};
  const std::size_t n = radius.size();
  const std::size_t count = std::min(n, kSample);
  for (std::size_t i = 0; i < count; ++i) sample[i] = radius[i * n / count];
  const auto mid = sample.begin() + static_cast<std::ptrdiff_t>(count / 2);
  std::nth_element(sample.begin(), mid,
                   sample.begin() + static_cast<std::ptrdiff_t>(count));
  const Dist half = *mid / 2;
  unsigned shift = 0;
  while (shift < 62 && (Dist{2} << shift) <= half) ++shift;
  return shift;
}

/// The passes of Algorithm 1 that step() runs per worker, each over the
/// worker's own WorkerScratch in one Search. Every team size produces
/// identical distances and an identical step sequence: by the end of a
/// step every vertex settled in it has relaxed its out-arcs with its final
/// value, so step-boundary distances — and with them the frontier, d_i,
/// steps, and settled counts — are schedule-independent. Substep counts
/// are NOT: relaxations read neighbor distances live (chaotic relaxation),
/// so how fast a step converges internally depends on processing order.
/// Only Theorem 3.2's k+2 upper bound is invariant.
///
/// The frontier is bucketed by distance: bucket b of a worker's
/// LazyBuckets holds vertices with delta in [b * Delta, (b + 1) * Delta).
/// A vertex is filed when it is first reached and again whenever a
/// relaxation moves it to a lower bucket, so its entries sit in strictly
/// decreasing buckets and exactly one, the one in bucket delta(v) / Delta,
/// is live while it is unsettled. Line 4 and the gather read buckets
/// upward from d_{i-1}'s, and only while a bucket's lower edge is within
/// the running min of delta + r: the rest of the frontier is not read.
///
/// Every vertex is settled by exactly one worker (claims are unique per
/// substep, live frontier entries are unique), so the settled and target
/// stamps stay plain; each worker counts what it settled and which
/// targets it took, and the counts are combined at step boundaries.
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
        k_goal_(ctx.k_goal()),
        shift_(bucket_shift(radius)) {}

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

  /// Line 2, on the calling thread: settles the source, relaxes its
  /// out-arcs into `me`'s frontier buckets, scans them for the first d_i
  /// and opens the search's first claim epoch.
  template <bool kMeet = false>
  void seed(Worker& me, Vertex source) {
    search_.next_claim_epoch();
    dist_[source].store(0, std::memory_order_relaxed);
    me.touched.push_back(source);
    settle(me, source);
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
        file(me, v, w, dv);
      }
    }
    scan(me);
  }

  /// Lines 6-8 for one active vertex u: relaxes every original arc, then
  /// walks u's weight-sorted shortcut segment and stops at the first arc
  /// that lands beyond d_i. A skipped shortcut can only reach a vertex
  /// whose final distance an original-arc path supplies (merge_edges'
  /// precondition), and Theorem 3.2's <= k-hop paths never land beyond
  /// d_i, so neither distances nor steps change (docs/ARCHITECTURE.md).
  /// A lowering within d_i claims the vertex for the next substep; one
  /// beyond d_i files it in `me`'s frontier buckets if its bucket fell.
  /// kShared selects the sharing mode: WriteMin and an atomic claim for a
  /// team, plain stores and claim_sequential on the calling thread. kMeet
  /// (calling thread only) lowers mu on each original arc before Line 7's
  /// filter. Counts successful lowerings into `relaxations`; returns the
  /// arcs examined, including the one that ends the scan.
  template <bool kShared, bool kMeet = false>
  std::size_t relax(Worker& me, Vertex u, Dist di, Dist prev_di,
                    std::size_t& relaxations) {
    static_assert(!(kShared && kMeet), "a meet runs on the calling thread");
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
      if (nd > di) {
        file(me, v, nd, before);
      } else if (kShared ? search_.claim(v) : search_.claim_sequential(v)) {
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

  /// First substep's active set from `me`'s buckets: every frontier vertex
  /// with delta <= d_i, all of it in the buckets the last scan read, which
  /// left only live entries there. They are settled the moment they
  /// appear. The buckets below d_i's are empty afterwards, so the ring
  /// moves up to it; every later filing of this step lands beyond d_i.
  void gather(Worker& me, Dist di) {
    me.active.clear();
    LazyBuckets& q = me.frontier;
    const std::uint64_t top = di >> shift_;
    for (std::uint64_t b = q.next(q.base()); b <= top; b = q.next(b + 1)) {
      const auto take = [&](Vertex v, std::uint64_t vb) {
        if (vb < top || load(v) <= di) {
          me.active.push_back(v);
          settle(me, v);
          return false;
        }
        return true;
      };
      if (b - q.base() >= LazyBuckets::kOpen) {
        q.filter_overflow(take);
        break;
      }
      q.filter(b, [&](Vertex v) { return take(v, b); });
    }
    q.advance(top);
  }

  /// The vertices `me` claimed in the last substep all lie within d_i:
  /// they become its next active list, settled on first arrival.
  void classify(Worker& me) {
    me.active.clear();
    for (const Vertex v : me.claimed) {
      me.active.push_back(v);
      if (!search_.is_settled(v)) settle(me, v);
    }
    me.claimed.clear();
  }

  /// Line 4 for the next step over `me`'s buckets (distances cannot change
  /// before it): reads buckets upward from d_i's while a bucket's lower
  /// edge is within the running min of delta + r, which no entry further
  /// up can lower, dropping settled and stale entries on the way. The
  /// result is `me`'s share of the next d_i: kInfDist exactly when `me`
  /// holds no live frontier vertex, since a live one counts at most
  /// kInfDist - 1 (which still settles every reachable vertex).
  void scan(Worker& me) {
    LazyBuckets& q = me.frontier;
    Dist di = kInfDist;
    const auto keep = [&](Vertex v, std::uint64_t b) {
      if (search_.is_settled(v)) return false;
      const Dist dv = load(v);
      if (dv >> shift_ != b) return false;
      di = std::min({di, dv + radius_[v], kInfDist - 1});
      return true;
    };
    for (std::uint64_t b = q.next(q.base());
         b != LazyBuckets::kNone && (b << shift_) <= di; b = q.next(b + 1)) {
      if (b - q.base() >= LazyBuckets::kOpen) {
        q.filter_overflow(keep);
        break;
      }
      q.filter(b, [&](Vertex v) { return keep(v, b); });
    }
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
      local.frontier_scanned += w.frontier.entries_read();
      taken += w.targets_taken;
    }
    ctx_.count_taken_targets(taken);
  }

  bool timed() const { return ctx_.trace_phases(); }
  Search& search() const { return search_; }

 private:
  /// Files `v`, just lowered from `before` to `nd`, when its bucket fell
  /// (from none, on first touch).
  void file(Worker& me, Vertex v, Dist nd, Dist before) const {
    const std::uint64_t b = nd >> shift_;
    if (before == kInfDist || b < before >> shift_) me.frontier.push(v, b);
  }

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
  const unsigned shift_;  // log2 Delta
  const Search* other_ = nullptr;
  Meeting* meeting_ = nullptr;
  bool backward_ = false;
};

/// Vertices per chunk of a shared relax phase: large enough to amortize
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

/// Ends a pass of a step: a team barrier when the workers share the
/// search, nothing on the calling thread.
template <bool kShared>
void sync() {
  if constexpr (kShared) {
#pragma omp barrier
  }
}

/// Lines 4-9 of one step for worker `tid` of the `nw` that run the search
/// (kShared: an OpenMP team; otherwise the calling thread alone, nw == 1).
/// Every worker owns frontier buckets, a claim list and an active list;
/// `cursors` (kShared only) holds one chunk cursor per active list.
///
///   Line 4   each worker reads every worker's pending d_i (computed by
///            the last seed or scan) and gathers A_i from its own buckets;
///            sync.
///   substep  the relax phase claims lowerings within d_i and files those
///            beyond it in the relaxing worker's buckets; sync. Then each
///            worker turns its claims into its next active list; sync.
///
/// A team's relax phase is owner-first: each worker takes kRelaxChunk-
/// vertex chunks of its own active list through that list's cursor, then
/// steals chunks from the other workers' cursors until every list is
/// drained. A worker's active list holds the vertices it claimed, so their
/// distance and claim words are mostly still in its cache; stealing only
/// moves the tail of a long list, which is what balances hub vertices.
/// Every chunk is taken exactly once, whoever takes it, so each active
/// vertex is relaxed once per substep: claims stay unique and every first
/// touch is recorded once. Each relax phase opens the claim epoch of the
/// next one (the seed opened the first), so every substep claims under an
/// epoch no earlier claim used.
///
/// Returns d_i, or kInfDist without stepping when the frontier is empty;
/// the caller scans for the next d_i. Every decision is taken by every
/// worker on values no worker writes until after the next sync, so a team
/// always leaves the loops together. kMeet makes the substeps of a
/// bidirectional run lower mu.
///
/// Traced requests take two clock readings per substep on worker 0 (relax
/// end is partition start, so the phases tile the substep); untraced runs
/// take none.
template <bool kShared, bool kMeet>
Dist step(Phases& phases, std::vector<Worker>& workers,
          QueryContext::ChunkCursor* cursors, std::size_t tid, int nw,
          Dist prev_di, RunStats& local) {
  // Line 4: d_i = min over the frontier of delta(v) + r(v).
  Dist di = kInfDist;
  for (int t = 0; t < nw; ++t) {
    di = std::min(di, workers[static_cast<std::size_t>(t)].pending_di);
  }
  if (di == kInfDist) return di;
  const bool lead = tid == 0;  // keeps `local` and the claim epoch
  const bool timed = lead && phases.timed();
  Worker& me = workers[tid];
  if (lead) ++local.steps;
  phases.gather(me, di);
  // Reset whenever `me.active` is refilled; no worker takes a chunk until
  // the sync that follows.
  if constexpr (kShared) cursors[tid].next.store(0, std::memory_order_relaxed);
  sync<kShared>();
  std::size_t active = active_total(workers, nw);
  auto t_relax = timed ? TraceClock::now() : TraceClock::time_point{};

  // Lines 5-9: Bellman-Ford substeps until no delta(v) <= d_i changes.
  std::size_t substeps_this_step = 0;
  while (active > 0) {
    ++substeps_this_step;
    if (lead) local.max_active = std::max(local.max_active, active);
    std::size_t relaxations = 0;
    std::size_t scanned = 0;
    const auto relax = [&](Vertex u) {
      scanned += phases.relax<kShared, kMeet>(me, u, di, prev_di, relaxations);
    };
    if constexpr (kShared) {
      // Own list first, then the others' in ring order.
      for (std::size_t s = 0; s < static_cast<std::size_t>(nw); ++s) {
        const std::size_t owner = (tid + s) % static_cast<std::size_t>(nw);
        take_chunks(workers[owner].active, cursors[owner].next, relax);
      }
    } else {
      for (const Vertex u : me.active) relax(u);
    }
    me.relaxations += relaxations;
    me.edges_scanned += scanned;
    sync<kShared>();
    const auto t_drain = timed ? TraceClock::now() : TraceClock::time_point{};
    if (lead) {
      if (timed) local.relax_ns += phase_ns(t_relax, t_drain);
      phases.search().next_claim_epoch();  // nobody claims until then
    }
    phases.classify(me);
    if constexpr (kShared) {
      cursors[tid].next.store(0, std::memory_order_relaxed);
    }
    sync<kShared>();
    active = active_total(workers, nw);
    if (timed) {
      t_relax = TraceClock::now();
      local.partition_ns += phase_ns(t_drain, t_relax);
    }
  }
  // Loop iterations equal Algorithm 1's repeat-until iterations: the
  // final iteration relaxes the last-updated vertices and observes no
  // further update with delta <= d_i (the Line 9 exit), so no extra
  // "observation" substep is added.
  if (lead) {
    local.substeps += substeps_this_step;
    local.max_substeps_in_step =
        std::max(local.max_substeps_in_step, substeps_this_step);
  }
  return di;
}

/// Algorithm 1 after the seed, for worker `tid` of `nw` (see step()):
/// steps until the frontier drains or a step boundary meets the run's
/// goals, scanning for the next d_i in between.
///
/// Targeted early termination: when ctx.has_targets(), the run stops at
/// the first STEP boundary with every stamped target settled. Vertices
/// marked settled mid-step can still improve while the annulus converges,
/// so the check only ever fires between steps, where Theorem 3.1 makes
/// every settled distance final — the exit is exact.
template <bool kShared>
void step_loop(Phases& phases, std::vector<Worker>& workers,
               QueryContext::ChunkCursor* cursors, std::size_t tid, int nw,
               RunStats& local) {
  // Round distance of the previous step (d_{i-1}). Vertices with
  // delta <= prev_di are exactly S_{i-1} (Theorem 3.1): final, safe to skip
  // as relaxation targets. d_0 = 0 covers the source.
  Dist prev_di = 0;
  for (;;) {
    const Dist di = step<kShared, false>(phases, workers, cursors, tid, nw,
                                         prev_di, local);
    if (di == kInfDist) return;  // the frontier is empty
    // Step boundary: every settled vertex is now final, so a run that has
    // met its goal — all targets settled, or k vertices for a top-k
    // request — is done; skip the frontier scan. The counts are stable
    // until the next gather, which follows the scan's sync.
    if (phases.goals_met(workers, nw)) {
      if (tid == 0) local.early_exit = true;
      return;
    }
    phases.scan(workers[tid]);
    prev_di = di;
    sync<kShared>();
  }
}

/// Algorithm 1 on num_workers() workers: the seed and the entry check on
/// the calling thread, then the step loop there (one worker) or in the
/// query's one OpenMP region. Inside any region num_workers() is 1, so a
/// query the batch scheduler or a server worker runs stays on its thread.
void run(const Graph& g, Vertex source, const std::vector<Dist>& radius,
         QueryContext& ctx, RunStats& local) {
  const int nw = num_workers();
  Phases phases(g, radius, ctx, ctx.search());
  std::vector<Worker>& workers = ctx.search().workers(nw);
  phases.seed(workers[0], source);
  // The entry check covers requests whose targets are already settled
  // (source-only target sets); the loop checks at every step boundary.
  const bool stepping = workers[0].pending_di != kInfDist;
  if (!stepping || phases.goals_met(workers, nw)) {
    local.early_exit = stepping;
  } else if (nw == 1) {
    step_loop<false>(phases, workers, nullptr, 0, 1, local);
  } else {
    QueryContext::ChunkCursor* cursors = ctx.cursors(nw).data();
#pragma omp parallel num_threads(nw)
    step_loop<true>(phases, workers, cursors,
                    static_cast<std::size_t>(omp_get_thread_num()), nw, local);
  }
  phases.finish(workers, nw, local);
}

/// Two searches that meet (see radius_stepping_meet), on the calling
/// thread. Each side is an ordinary run of Algorithm 1 advanced one whole
/// step at a time, so at every step boundary the vertices a side has
/// settled are exactly those within its last step radius, with final
/// distances (Theorem 3.1). mu starts infinite and is lowered on the
/// original arcs the seeds and the substeps scan; the run stops at the
/// first boundary where the two radii reach it, which makes mu =
/// d(source, target) (docs/ARCHITECTURE.md). Stepping the side with fewer
/// live frontier vertices keeps the two balls growing at the same cost
/// rather than the same radius.
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
  // A side's live frontier vertices: the ones it touched and has not
  // settled.
  const auto live = [](const Worker& w) {
    return w.touched.size() - w.settled;
  };
  while (f.pending_di != kInfDist && b.pending_di != kInfDist) {
    if (df + db >= meeting.dist) {
      local.early_exit = true;
      break;
    }
    if (live(f) <= live(b)) {
      df = step<false, true>(fwd, fw, nullptr, 0, 1, df, local);
      fwd.scan(f);
    } else {
      db = step<false, true>(bwd, bw, nullptr, 0, 1, db, local);
      bwd.scan(b);
    }
  }
  fwd.finish(fw, 1, local);
  bwd.finish(bw, 1, local);
  return meeting;
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
  run(g, source, radius, ctx, local);
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
