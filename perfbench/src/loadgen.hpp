// The load generator: seeded request, source and update streams, and the
// open-loop runner that offers them to a service on a fixed schedule.
//
// Every stream value is a pure function of (seed, stream id, index), so one
// seed always yields the same requests and a different seed changes them.
// The program under test only ever sees the generated requests.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <vector>

#include "common.hpp"
#include "core/request.hpp"
#include "graph/graph.hpp"
#include "graph/update.hpp"
#include "parallel/rng.hpp"

namespace perfbench {

/// Stream ids. Each phase draws from its own stream so phases are
/// independent of each other's lengths.
enum Stream : std::uint64_t {
  kPoolStream = 1,
  kSourcePickStream = 2,
  kTargetStream = 3,
  kUpdateStream = 4,
};

/// `count` vertices drawn uniformly from [0, n).
std::vector<rs::Vertex> source_pool(std::uint64_t seed, rs::Vertex n, std::size_t count);

/// One point-to-point request of a stream: a source (by pool slot) and a
/// target vertex.
struct PointQuery {
  std::uint32_t slot = 0;
  rs::Vertex source = 0;
  rs::Vertex target = 0;
  friend bool operator==(const PointQuery& a, const PointQuery& b) {
    return a.slot == b.slot && a.source == b.source && a.target == b.target;
  }
};

/// Zipf(s) over ranks [0, n): rank r has weight 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  /// Rank for a uniform draw u in [0, 1).
  std::size_t sample(double u) const;

 private:
  std::vector<double> cdf_;
};

/// The request streams of one run.
class RequestStreams {
 public:
  /// `pool_size` sources drawn uniformly from the graph's vertices.
  RequestStreams(std::uint64_t seed, rs::Vertex n, std::size_t pool_size);

  const std::vector<rs::Vertex>& pool() const { return pool_; }

  /// Request `i` of phase `phase` with a uniformly drawn pool source.
  PointQuery uniform(std::uint64_t phase, std::uint64_t i) const;
  /// Request `i` of phase `phase` with a Zipf(`zipf`)-drawn pool source.
  PointQuery skewed(const ZipfSampler& zipf, std::uint64_t phase, std::uint64_t i) const;

 private:
  PointQuery make(std::uint32_t slot, std::uint64_t phase, std::uint64_t i) const;

  rs::SplitRng rng_;
  rs::Vertex n_;
  std::vector<rs::Vertex> pool_;
};

/// Edges per update batch `j`: the sizes cycle 1, 8, 64.
std::size_t update_batch_size(std::uint64_t j);

/// Update batch `j`: update_batch_size(j) existing edges of `g` with new
/// weights drawn uniformly from [1, 10^4].
std::vector<rs::WeightUpdate> update_batch(std::uint64_t seed, const rs::Graph& g,
                                           std::uint64_t j);

/// Due time of request `i` after the schedule's start at `rate` requests
/// per second. The schedule is fixed in advance: a request is due at its
/// slot whether or not earlier requests have completed.
std::chrono::nanoseconds due_offset(std::uint64_t i, double rate);

/// Configuration of one open-loop phase.
struct OpenLoopOptions {
  double rate = 100.0;          ///< Offered requests per second.
  double seconds = 1.0;         ///< Schedule length.
};

/// What an open-loop phase measured.
struct OpenLoopResult {
  std::uint64_t sent = 0;       ///< Submit calls made.
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;     ///< Futures that threw.
  std::vector<double> latency_ms;  ///< Due -> completion, completed requests.
  std::vector<double> due_s;       ///< Due offset of each latency_ms entry.
  std::vector<double> lag_ms;      ///< Due -> submit call, every request.
  std::size_t max_in_flight = 0;
  double elapsed_s = 0.0;          ///< Schedule start -> last completion.
};

/// Median over consecutive `window_s`-second windows (by due time) of the
/// q-quantile of each window's latencies. A window with fewer than half
/// the samples of a full window (the tail end) is left out. Robust to one
/// transient stall, which moves only its own window.
double windowed_quantile(const OpenLoopResult& r, double rate, double window_s, double q);

/// Submits request `i`; returns true and fills the future when accepted.
using SubmitFn = std::function<bool(std::uint64_t i, std::future<rs::QueryResponse>& out)>;
/// Receives request `i`'s response with its due instant, the instant the
/// collector began waiting on its future, and its completion instant.
using CompleteFn =
    std::function<void(std::uint64_t i, rs::QueryResponse& resp, Clock::time_point due,
                       Clock::time_point wait_start, Clock::time_point done)>;

/// Offers `rate` requests per second for `seconds` seconds from the calling
/// thread and collects completions in submission order on one more thread
/// (two load-generator threads in all). Blocks until every accepted request
/// has completed.
OpenLoopResult run_open_loop(const OpenLoopOptions& options, const SubmitFn& submit,
                             const CompleteFn& complete);

}  // namespace perfbench
