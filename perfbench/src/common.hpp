// Shared pieces of the service benchmark: clock, quantiles, the metric
// report every workload fills, the benchmark's own span log, and a small
// fork-join helper for reference computations.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t to_ns(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile of `v` (q in [0, 1]); sorts a copy. 0 when empty.
double quantile(std::vector<double> v, double q);
/// Median of `v` (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> v);
/// Median over `rounds` of each round's q-quantile. One slow round, such
/// as a burst of a neighbour's load on a shared host, barely moves it.
double median_over_rounds(const std::vector<std::vector<double>>& rounds, double q);

/// Requests sent / succeeded / rejected / wrong for one workload phase.
struct PhaseCounts {
  std::string phase;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;  ///< Refused at admission (shed, invalid).
  std::uint64_t errors = 0;    ///< Exceptions from a future or a call.
  std::uint64_t wrong = 0;     ///< Answers that failed verification.
  std::uint64_t failed() const { return rejected + errors + wrong; }
};

/// Everything one run reports: named metrics in print order, the phase
/// ledger, and correctness violations.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Value of a metric added earlier (0 if absent).
  double value(const std::string& name) const;
  bool has(const std::string& name) const;

  /// The named phase, created on first use. References stay valid.
  PhaseCounts& phase(const std::string& name);

  /// Records a correctness failure that is not a per-request answer, such
  /// as a Theorem 3.2 substep-bound violation.
  void violation(const std::string& what);

  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  bool correct() const { return failed() == 0 && violations_.empty(); }

  /// Prints the phase ledger and metric table, then the one-line JSON
  /// result (`correct`, `attempted`, `failed`, `metrics`) as the last line.
  void print(const std::vector<std::string>& json_metrics) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::deque<PhaseCounts> phases_;
  std::vector<std::string> violations_;
};

/// One span of the benchmark's own trace: a timed call into a layer.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;      ///< 0 = root.
  std::uint64_t request = 0;     ///< Request id shared by one request's spans.
  std::uint64_t start_ns = 0;    ///< steady_clock ns.
  std::uint64_t end_ns = 0;
  std::int64_t arg = 0;          ///< Span-specific detail (e.g. batch size).
  double duration_ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// In-memory span log. Each recording thread owns one SpanLog (no locks on
/// the hot path); logs are merged and written out when the run ends. A
/// null SpanLog pointer means "untraced" everywhere in the benchmark.
class SpanLog {
 public:
  /// Ids are unique across every SpanLog of the process.
  static std::uint64_t next_id();

  std::uint64_t add(std::string name, Clock::time_point start, Clock::time_point end,
                    std::uint64_t parent = 0, std::uint64_t request = 0,
                    std::int64_t arg = 0);
  /// Same with raw steady-clock ns; `id` 0 allocates a fresh id.
  std::uint64_t add_ns(std::string name, std::uint64_t start_ns, std::uint64_t end_ns,
                       std::uint64_t parent, std::uint64_t request, std::int64_t arg = 0,
                       std::uint64_t id = 0);
  void append(const SpanLog& other);
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ms) of every span called `name` (optionally with `arg`).
  std::vector<double> durations_ms(const std::string& name) const;
  std::vector<double> durations_ms(const std::string& name, std::int64_t arg) const;

  /// Writes one JSON object per span to `path`; returns false on failure.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Runs body(i) for i in [0, count) on up to `threads` std::threads. Used
/// for reference computations outside the timed windows.
void fork_join(std::size_t count, unsigned threads,
               const std::function<void(std::size_t)>& body);

/// Threads the load generator may use: the machine's hardware threads.
unsigned load_threads();

/// The paper's weighted road network (side x side lattice) and webgraph,
/// with the fixed generator seeds of the repository's paper benches.
rs::Graph road_graph(rs::Vertex side);
rs::Graph web_graph(rs::Vertex n);

/// 64-bit fingerprint of a distance vector or a graph's weights.
std::uint64_t hash_dist(const std::vector<rs::Dist>& d);
std::uint64_t hash_weights(const rs::Graph& g);

/// nproc, build type and worker count, for the report header.
std::string machine_fingerprint();

}  // namespace perfbench
