// Fixed-bucket log-linear histogram (HDR-histogram style) — the one
// distribution type of the observability subsystem (obs/metrics.hpp).
//
// The serving daemon records end-to-end latency here, but the registry can
// hold a Histogram for any magnitude-style quantity.
//
// The record path is the constraint: it runs once per served request, from
// every worker thread at once, and must never allocate or take a lock —
// one bucket index computation (a bit-scan and a shift) and three relaxed
// fetch_adds (bucket, total, sum). All storage is a fixed std::array of atomic
// counters sized at compile time, so a histogram is ~15 KiB and records
// values across the full uint64 range with bounded relative error.
//
// Bucketing: values below 2^kSubBits (32) are exact; above that, each
// power-of-two range is split into 32 equal sub-buckets, so any recorded
// value is off by at most 1/32 (~3.1%) of its magnitude — tight enough to
// gate p99 regressions on, with no coordination between recorders.
//
// Quantile reads (p50/p99/p999) take a snapshot — a plain copy of the
// counters — and scan cumulative counts; reads are control-path only
// (stats endpoints, exporters, BENCH emission), so their allocation is
// fine. merge() folds another histogram in bucket-wise, which is how the
// registry aggregates per-worker (or per-shard) histograms into one
// exported distribution.
#pragma once

#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rs::obs {

class Histogram {
 public:
  static constexpr int kSubBits = 5;  // 32 sub-buckets per power of two
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBits;
  // One linear segment [0, 32) plus 32 sub-buckets for each of the 59
  // power-of-two decades a uint64 value above 31 can start in.
  static constexpr std::size_t kBuckets =
      kSubBuckets * (64 - kSubBits + 1);

  /// Bucket index of `value` (stable across calls; exposed for tests).
  static std::size_t bucket_index(std::uint64_t value) {
    if (value < kSubBuckets) return static_cast<std::size_t>(value);
    // Position of the most significant bit, 0-based (value >= 32 here).
    const int msb = 63 - __builtin_clzll(value);
    const int decade = msb - kSubBits + 1;  // >= 1
    const std::uint64_t sub = (value >> (decade - 1)) & (kSubBuckets - 1);
    return static_cast<std::size_t>(decade) * kSubBuckets +
           static_cast<std::size_t>(sub);
  }

  /// Largest value mapping to bucket `index` — what quantiles report, so
  /// the estimate is a conservative (upper) bound of the true quantile.
  static std::uint64_t bucket_upper(std::size_t index) {
    if (index < kSubBuckets) return index;
    const std::size_t decade = index >> kSubBits;
    const std::uint64_t sub = index & (kSubBuckets - 1);
    const std::uint64_t low = (kSubBuckets + sub) << (decade - 1);
    return low + ((1ull << (decade - 1)) - 1);
  }

  /// Records one observation. Wait-free, allocation-free: relaxed
  /// fetch_adds on the bucket, the total, and the running sum.
  void record(std::uint64_t value) noexcept {
    counts_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    return total_.load(std::memory_order_relaxed);
  }

  /// Sum of every recorded value (saturation-free for realistic loads:
  /// 2^64 microseconds is half a million years). Exporters emit this as
  /// the Prometheus `_sum` series.
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// A consistent-enough copy for multi-quantile reads (concurrent
  /// records may straddle the copy; each observation is counted at most
  /// once and quantiles of a live histogram are approximations anyway).
  struct Snapshot {
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
    std::uint64_t sum = 0;

    /// Upper bound of the bucket holding the q-quantile observation
    /// (q in [0, 1]); 0 when empty. Overestimates by at most 1/32.
    std::uint64_t value_at_quantile(double q) const {
      if (total == 0) return 0;
      if (q < 0.0) q = 0.0;
      if (q > 1.0) q = 1.0;
      const auto rank_raw = static_cast<std::uint64_t>(
          std::ceil(q * static_cast<double>(total)));
      const std::uint64_t rank = rank_raw == 0 ? 1 : rank_raw;
      std::uint64_t seen = 0;
      for (std::size_t i = 0; i < counts.size(); ++i) {
        seen += counts[i];
        if (seen >= rank) return bucket_upper(i);
      }
      return bucket_upper(counts.size() - 1);
    }
  };

  Snapshot snapshot() const {
    Snapshot s;
    s.counts.resize(kBuckets);
    for (std::size_t i = 0; i < kBuckets; ++i) {
      s.counts[i] = counts_[i].load(std::memory_order_relaxed);
      s.total += s.counts[i];
    }
    s.sum = sum_.load(std::memory_order_relaxed);
    return s;
  }

  /// Convenience single-quantile read (snapshots internally).
  std::uint64_t value_at_quantile(double q) const {
    return snapshot().value_at_quantile(q);
  }

  /// Folds `other` into this histogram bucket-wise — how the registry
  /// aggregates per-worker histograms into one exported distribution.
  /// Concurrent record()s on either side land in one histogram or the
  /// other but are never lost or double-counted.
  void merge(const Histogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c =
          other.counts_[i].load(std::memory_order_relaxed);
      if (c != 0) counts_[i].fetch_add(c, std::memory_order_relaxed);
    }
    total_.fetch_add(other.total_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }

  void reset() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    total_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> sum_{0};
};

}  // namespace rs::obs
