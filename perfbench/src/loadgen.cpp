#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "graph/weights.hpp"

namespace perfbench {

namespace {

std::uint64_t phase_stream(Stream s, std::uint64_t phase) {
  return (static_cast<std::uint64_t>(s) << 16) | phase;
}

}  // namespace

std::vector<rs::Vertex> source_pool(std::uint64_t seed, rs::Vertex n, std::size_t count) {
  const rs::SplitRng rng(seed);
  std::vector<rs::Vertex> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = static_cast<rs::Vertex>(rng.bounded(kPoolStream, i, n));
  }
  return out;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::sample(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

RequestStreams::RequestStreams(std::uint64_t seed, rs::Vertex n, std::size_t pool_size)
    : rng_(seed), n_(n), pool_(source_pool(seed, n, pool_size)) {}

PointQuery RequestStreams::make(std::uint32_t slot, std::uint64_t phase,
                                std::uint64_t i) const {
  PointQuery q;
  q.slot = slot;
  q.source = pool_[slot];
  q.target = static_cast<rs::Vertex>(rng_.bounded(phase_stream(kTargetStream, phase), i, n_));
  return q;
}

PointQuery RequestStreams::uniform(std::uint64_t phase, std::uint64_t i) const {
  const auto slot = static_cast<std::uint32_t>(
      rng_.bounded(phase_stream(kSourcePickStream, phase), i, pool_.size()));
  return make(slot, phase, i);
}

PointQuery RequestStreams::skewed(const ZipfSampler& zipf, std::uint64_t phase,
                                  std::uint64_t i) const {
  const auto slot = static_cast<std::uint32_t>(
      zipf.sample(rng_.uniform(phase_stream(kSourcePickStream, phase), i)));
  return make(slot, phase, i);
}

std::size_t update_batch_size(std::uint64_t j) {
  static constexpr std::size_t kSizes[] = {1, 8, 64};
  return kSizes[j % 3];
}

std::vector<rs::WeightUpdate> update_batch(std::uint64_t seed, const rs::Graph& g,
                                           std::uint64_t j) {
  const rs::SplitRng rng(seed);
  const std::size_t size = update_batch_size(j);
  std::vector<rs::WeightUpdate> out;
  out.reserve(size);
  for (std::size_t k = 0; k < size; ++k) {
    const std::uint64_t base = (j << 10) | (k << 2);
    auto u = static_cast<rs::Vertex>(rng.bounded(kUpdateStream, base, g.num_vertices()));
    while (g.degree(u) == 0) u = (u + 1) % g.num_vertices();
    const auto nbrs = g.neighbors(u);
    const rs::Vertex v = nbrs[rng.bounded(kUpdateStream, base | 1, nbrs.size())];
    const auto w =
        static_cast<rs::Weight>(1 + rng.bounded(kUpdateStream, base | 2, rs::kPaperMaxWeight));
    out.push_back(rs::WeightUpdate{u, v, w});
  }
  return out;
}

std::chrono::nanoseconds due_offset(std::uint64_t i, double rate) {
  return std::chrono::nanoseconds(
      static_cast<std::int64_t>(std::llround(1e9 * static_cast<double>(i) / rate)));
}

double windowed_quantile(const OpenLoopResult& r, double rate, double window_s, double q) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < r.latency_ms.size(); ++i) {
    const auto w = static_cast<std::size_t>(r.due_s[i] / window_s);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(r.latency_ms[i]);
  }
  const double full = rate * window_s;
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    if (static_cast<double>(w.size()) >= full / 2) per_window.push_back(quantile(w, q));
  }
  return median(per_window);
}

OpenLoopResult run_open_loop(const OpenLoopOptions& options, const SubmitFn& submit,
                             const CompleteFn& complete) {
  const auto total = static_cast<std::size_t>(std::ceil(options.rate * options.seconds));
  OpenLoopResult result;
  std::vector<std::future<rs::QueryResponse>> futures(total);
  std::vector<Clock::time_point> due(total);
  std::vector<char> accepted(total, 0);
  // Completion instants stamped by the dispatcher for requests whose future
  // was already ready when submit returned (answered synchronously, e.g. a
  // cache hit). The collector waits in submission order, so it would see
  // such a request only after every earlier one had completed.
  std::vector<Clock::time_point> ready_at(total);
  std::vector<double> latency(total, -1.0);
  result.lag_ms.reserve(total);

  std::mutex mu;
  std::condition_variable cv;
  std::size_t published = 0;  // guarded by mu
  bool done_dispatching = false;
  std::atomic<std::size_t> completed{0};
  std::atomic<std::uint64_t> errors{0};
  Clock::time_point last_done{};

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  std::thread collector([&] {
    for (std::size_t i = 0;; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return published > i || done_dispatching; });
        if (published <= i) return;
      }
      if (!accepted[i]) continue;
      try {
        const Clock::time_point wait_start = Clock::now();
        rs::QueryResponse resp = futures[i].get();
        const Clock::time_point done =
            ready_at[i] != Clock::time_point{} ? ready_at[i] : Clock::now();
        latency[i] = ms_between(due[i], done);
        last_done = done;
        complete(i, resp, due[i], wait_start, done);
      } catch (...) {
        errors.fetch_add(1, std::memory_order_relaxed);
        last_done = Clock::now();
      }
      completed.fetch_add(1, std::memory_order_release);
    }
  });

  std::size_t in_flight_accepted = 0;
  for (std::size_t i = 0; i < total; ++i) {
    due[i] = start + due_offset(i, options.rate);
    std::this_thread::sleep_until(due[i]);
    result.lag_ms.push_back(ms_between(due[i], Clock::now()));
    ++result.sent;
    if (submit(i, futures[i])) {
      if (futures[i].wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        ready_at[i] = Clock::now();
      }
      accepted[i] = 1;
      ++result.accepted;
      ++in_flight_accepted;
    } else {
      ++result.rejected;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      published = i + 1;
    }
    cv.notify_one();
    const std::size_t in_flight =
        in_flight_accepted - completed.load(std::memory_order_acquire);
    result.max_in_flight = std::max(result.max_in_flight, in_flight);
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done_dispatching = true;
  }
  cv.notify_one();
  collector.join();

  result.errors = errors.load();
  for (std::size_t i = 0; i < latency.size(); ++i) {
    if (latency[i] < 0.0) continue;
    result.latency_ms.push_back(latency[i]);
    result.due_s.push_back(static_cast<double>(i) / options.rate);
  }
  result.elapsed_s = last_done == Clock::time_point{} ? 0.0 : s_between(start, last_done);
  return result;
}

}  // namespace perfbench
