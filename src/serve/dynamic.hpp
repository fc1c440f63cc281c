/// \file
/// DynamicSsspService: live weight updates over a serving daemon.
///
/// The dynamic-graph story has two gears, and this class drives both of
/// them from one place:
///
///  1. STAGE — validate a weight-update batch and buffer it. The daemon
///     keeps serving the published (flushed) epoch untouched: staged
///     weights are invisible to every read until a flush.
///  2. FLUSH — IncrementalPreprocessor recomputes exactly the balls the
///     staged updates dirtied, splices a fresh PreprocessResult (bit-
///     identical to a cold rebuild), wraps it in SsspEngine::next_epoch,
///     and publishes it through SsspServer::swap_engine — mid-traffic, no
///     quiescent point: in-flight queries finish on the old epoch, new
///     ones start on the new epoch.
///
/// apply_updates() = stage + flush, the one-call form the daemon's
/// `update` verb uses. Everything is serialized by one internal mutex;
/// queries through the server itself need no lock (they pin epochs).
///
/// FLUSH can also run unattended: Options::flush_interval_ms starts a
/// background flusher thread on a timer, and Options::flush_dirty_fraction
/// makes stage() trigger it early once the staged batch would dirty that
/// fraction of all balls (tracked by the rs_dyn_dirty_fraction gauge in
/// the daemon's metrics registry, via IncrementalPreprocessor::
/// count_dirty()).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "graph/graph.hpp"
#include "graph/update.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "shortcut/incremental.hpp"
#include "shortcut/shortcut.hpp"

namespace rs::serve {

/// What one stage()/flush()/apply_updates() call did.
struct UpdateReport {
  /// Directed arcs whose new weight differs from the PUBLISHED epoch's, in
  /// this call's batch (stage, apply_updates) or in all staged (flush).
  std::size_t updated_arcs = 0;
  /// Balls the flush recomputed (0 for a pure stage()).
  std::size_t dirty_balls = 0;
  /// Total balls (= vertices) at flush time (0 for a pure stage()).
  std::size_t total_balls = 0;
  /// Engine epoch after the call (bumped by a flush whose staged updates
  /// change some arc's weight).
  std::uint64_t epoch = 0;
  /// Raw updates still staged (0 right after a flush).
  std::size_t staged = 0;
  /// Wall time of the incremental re-preprocess + swap (flush only).
  double incremental_ms = 0.0;
};

/// Serving daemon + incremental preprocessor, wired together (see file
/// comment).
class DynamicSsspService {
 public:
  /// Construction-time configuration.
  struct Options {
    /// Ball/shortcut parameters for the (incremental) preprocessing.
    PreprocessOptions preprocess;
    /// Daemon configuration (queue, cache, tracing).
    ServerOptions server;
    /// Background flush timer: when nonzero, a flusher thread wakes every
    /// this many milliseconds and flushes whatever is staged. 0 disables
    /// the timer (flushes still happen on explicit flush()/apply_updates()
    /// and on the dirty-fraction trigger below).
    std::uint32_t flush_interval_ms = 0;
    /// Background flush threshold: when > 0, stage() requests an immediate
    /// background flush once the staged batch would dirty at least this
    /// fraction of all balls (the rs_dyn_dirty_fraction gauge). 0 disables
    /// the trigger. The flusher thread starts iff either knob is nonzero.
    double flush_dirty_fraction = 0.0;
  };

  /// Cold-preprocesses `g`, builds the first engine (epoch 1), starts the
  /// daemon, and (when a flush_interval_ms / flush_dirty_fraction knob is
  /// set) the background flusher thread.
  explicit DynamicSsspService(Graph g, const Options& options);

  /// Stops the flusher thread (staged-but-unflushed updates stay staged —
  /// shutdown does NOT force a final flush), then tears down the daemon.
  ~DynamicSsspService();

  DynamicSsspService(const DynamicSsspService&) = delete;
  DynamicSsspService& operator=(const DynamicSsspService&) = delete;

  /// The daemon. Queries submitted here are answered from the PUBLISHED
  /// epoch — staged-but-unflushed updates are invisible to it until a
  /// flush() publishes them.
  SsspServer& server() { return *server_; }
  /// Const view of the daemon (stats, snapshots).
  const SsspServer& server() const { return *server_; }

  /// Stages a weight-update batch without republishing: the next flush()
  /// replays it, and serving continues on the old epoch. Throws
  /// std::invalid_argument on a bad update (nothing staged).
  UpdateReport stage(const std::vector<WeightUpdate>& updates);

  /// Incrementally re-preprocesses everything staged and publishes the
  /// successor engine via swap_engine(). No-op (no epoch bump) when
  /// nothing is staged. When the staged updates cancel out (no arc ends
  /// at a new weight) it drops them and publishes nothing: the epoch and
  /// the cached rows stay.
  UpdateReport flush();

  /// stage() then flush() — the `update` verb (updated_arcs is stage()'s).
  UpdateReport apply_updates(const std::vector<WeightUpdate>& updates);

  /// True when updates are staged but not yet flushed.
  bool has_staged() const;

 private:
  /// Background flusher body: waits on the timer / threshold trigger and
  /// calls flush(). Runs only when one of the flush knobs is nonzero.
  void flusher_loop();

  Options options_;
  mutable std::mutex mu_;
  /// Balls + shortcuts for the FLUSHED graph (the published epoch's base).
  IncrementalPreprocessor incr_;
  /// Raw staged updates, replayed into incr_ at flush time.
  std::vector<WeightUpdate> pending_updates_;
  /// True while incr_ holds weights the published epoch lacks (a flush
  /// threw after applying them): the next flush publishes even when its
  /// replay changes no further arc.
  bool unpublished_ = false;
  std::unique_ptr<SsspServer> server_;
  /// rs_dyn_dirty_fraction in the daemon's registry: fraction of all balls
  /// the currently staged updates would dirty (count_dirty / total). Set
  /// on every stage(), reset to 0 by flush(). Bound after server_ exists.
  obs::Gauge* dirty_fraction_ = nullptr;
  /// Flusher-thread coordination (separate from mu_ so stage() can notify
  /// while holding mu_ and the flusher can flush() without deadlock).
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;
  bool flush_requested_ = false;
  bool stop_flusher_ = false;
  std::thread flusher_;
};

}  // namespace rs::serve
