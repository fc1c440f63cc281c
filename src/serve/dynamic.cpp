#include "serve/dynamic.hpp"

#include <chrono>
#include <utility>

namespace rs::serve {

DynamicSsspService::DynamicSsspService(Graph g, const Options& options)
    : options_(options), incr_(g, options.preprocess) {
  server_ = std::make_unique<SsspServer>(
      std::make_shared<const SsspEngine>(incr_.graph(), incr_.result()),
      options_.server);
  dirty_fraction_ = &server_->metrics().gauge(
      "rs_dyn_dirty_fraction", {},
      "Fraction of balls the staged (unflushed) updates would dirty");
  if (options_.flush_interval_ms != 0 || options_.flush_dirty_fraction > 0) {
    flusher_ = std::thread([this] { flusher_loop(); });
  }
}

DynamicSsspService::~DynamicSsspService() {
  if (flusher_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      stop_flusher_ = true;
    }
    flush_cv_.notify_all();
    flusher_.join();
  }
}

void DynamicSsspService::flusher_loop() {
  std::unique_lock<std::mutex> lock(flush_mu_);
  // With no timer configured, wake only on the threshold trigger (or stop).
  const auto interval = options_.flush_interval_ms != 0
                            ? std::chrono::milliseconds(options_.flush_interval_ms)
                            : std::chrono::hours(24);
  while (!stop_flusher_) {
    const bool triggered = flush_cv_.wait_for(
        lock, interval, [this] { return stop_flusher_ || flush_requested_; });
    if (stop_flusher_) return;
    flush_requested_ = false;
    lock.unlock();
    // Timer expiry flushes whatever is staged; a threshold trigger always
    // flushes. flush() itself is a no-op when nothing is staged, so the
    // has_staged() check only avoids taking mu_ on idle ticks.
    if (triggered || has_staged()) flush();
    lock.lock();
  }
}

UpdateReport DynamicSsspService::stage(
    const std::vector<WeightUpdate>& updates) {
  std::lock_guard<std::mutex> lock(mu_);
  // Weight updates never change topology, so the published graph refuses
  // exactly the batches the staged one would: a bad batch throws here.
  UpdateReport report;
  report.updated_arcs = weight_changes(incr_.graph(), updates).size();
  pending_updates_.insert(pending_updates_.end(), updates.begin(),
                          updates.end());
  report.staged = pending_updates_.size();
  report.epoch = server_->engine_snapshot()->graph_epoch();

  // Publish how much re-preprocessing the staged set has accrued, and ask
  // the background flusher to run once it crosses the configured fraction.
  const std::size_t total = incr_.graph().num_vertices();
  const double fraction =
      total == 0 ? 0.0
                 : static_cast<double>(incr_.count_dirty(pending_updates_)) /
                       static_cast<double>(total);
  dirty_fraction_->set(fraction);
  if (flusher_.joinable() && options_.flush_dirty_fraction > 0 &&
      fraction >= options_.flush_dirty_fraction) {
    {
      std::lock_guard<std::mutex> flock(flush_mu_);
      flush_requested_ = true;
    }
    flush_cv_.notify_one();
  }
  return report;
}

UpdateReport DynamicSsspService::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  UpdateReport report;
  if (pending_updates_.empty()) {
    report.epoch = server_->engine_snapshot()->graph_epoch();
    return report;
  }
  const auto t0 = std::chrono::steady_clock::now();
  // Replay the raw staged updates into the incremental preprocessor
  // (later updates to an edge win, across batches as within one), splice
  // the new PreprocessResult, and publish the successor epoch.
  const IncrementalUpdateStats stats = incr_.apply(pending_updates_);
  report.total_balls = stats.total_balls;
  if (stats.updated_arcs == 0 && !unpublished_) {
    // The staged updates cancel out: the published epoch, and every row
    // cached for it, still describe the graph.
    pending_updates_.clear();
    dirty_fraction_->set(0.0);
    report.epoch = server_->engine_snapshot()->graph_epoch();
    return report;
  }
  unpublished_ = true;
  PreprocessResult pre = incr_.result();
  const std::shared_ptr<const SsspEngine> prior = server_->engine_snapshot();
  auto next = std::make_shared<const SsspEngine>(
      SsspEngine::next_epoch(*prior, incr_.graph(), std::move(pre)));
  server_->swap_engine(next);
  unpublished_ = false;
  const auto t1 = std::chrono::steady_clock::now();

  pending_updates_.clear();
  dirty_fraction_->set(0.0);

  report.updated_arcs = stats.updated_arcs;
  report.dirty_balls = stats.dirty_balls;
  report.epoch = next->graph_epoch();
  report.incremental_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  return report;
}

UpdateReport DynamicSsspService::apply_updates(
    const std::vector<WeightUpdate>& updates) {
  const UpdateReport staged = stage(updates);
  UpdateReport report = flush();
  report.updated_arcs = staged.updated_arcs;
  return report;
}

bool DynamicSsspService::has_staged() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !pending_updates_.empty();
}

}  // namespace rs::serve
