/// \file
/// MetricsRegistry: the one place every layer of the serving stack
/// registers its counters, gauges, and histograms.
///
/// Design split: REGISTRATION is slow-path (a mutex, string keys, heap
/// nodes) and happens once per metric, at construction time of whatever
/// owns the registry. UPDATES are hot-path and go through the returned
/// handle — a stable reference to an atomic cell that never moves for the
/// registry's lifetime — so recording is one relaxed fetch_add with no
/// lock, no lookup, and no allocation. SNAPSHOTS walk the registry under
/// the mutex and copy every value out; they are control-path only (the
/// `stats`/`metrics` verbs, shutdown prints, exporters).
///
/// Metrics are keyed by name + label set (Prometheus-style: the same name
/// may be registered with different labels, e.g.
/// `rs_requests_rejected_total{reason="queue_full"}` vs
/// `{reason="invalid"}`). Registering the same name+labels twice returns
/// the SAME handle, so independent components can share a series.
///
///   obs::MetricsRegistry reg;
///   obs::Counter& hits = reg.counter("rs_cache_hits_total",
///                                    {}, "Cache row hits");
///   hits.add();                       // hot path: one relaxed fetch_add
///   for (const obs::MetricSample& s : reg.snapshot()) { ... }
///
/// Exporters (obs/export.hpp) render a snapshot as Prometheus text
/// exposition or JSON.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace rs::obs {

/// Monotonic counter. add() is wait-free and allocation-free. The
/// memory-order parameters exist for callers whose counter doubles as a
/// synchronization edge (e.g. the server's accepted/completed pair that
/// drives drain()); everyone else uses the relaxed defaults.
class Counter {
 public:
  void add(std::uint64_t n = 1,
           std::memory_order order = std::memory_order_relaxed) noexcept {
    v_.fetch_add(n, order);
  }
  std::uint64_t value(
      std::memory_order order = std::memory_order_relaxed) const noexcept {
    return v_.load(order);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time value (may go down). Doubles cover both integral gauges
/// (epochs, widths) and fractional ones (dirty fraction) — Prometheus
/// gauges are doubles anyway.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  /// Monotone-max update (CAS loop; wait-free in the common no-update
  /// case) — for high-watermark gauges.
  void record_max(double v) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (v > cur && !v_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<double> v_{0.0};
};

/// One name="value" pair attached to a metric series.
struct Label {
  std::string key;
  std::string value;
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One series in a registry snapshot. Counters and gauges fill `value`;
/// histograms fill `hist` (counts/total/sum, quantile-queryable).
struct MetricSample {
  std::string name;
  std::vector<Label> labels;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
  Histogram::Snapshot hist;
};

/// The registry (see file comment). Thread-safe: registration and
/// snapshotting lock; handle updates never do.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds) the counter `name` with `labels`. The returned
  /// reference is stable for the registry's lifetime. Throws
  /// std::invalid_argument when the same name+labels is already
  /// registered as a different kind.
  Counter& counter(const std::string& name, std::vector<Label> labels = {},
                   const std::string& help = "");
  /// Same contract for gauges.
  Gauge& gauge(const std::string& name, std::vector<Label> labels = {},
               const std::string& help = "");
  /// Same contract for histograms.
  Histogram& histogram(const std::string& name,
                       std::vector<Label> labels = {},
                       const std::string& help = "");

  /// Copies every registered series out, in registration order (stable —
  /// exporters and fixture tests rely on it).
  std::vector<MetricSample> snapshot() const;

  /// Number of registered series.
  std::size_t size() const;

 private:
  struct Entry {
    std::string name;
    std::vector<Label> labels;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    // Exactly one of these is engaged, per kind. deque storage keeps the
    // Entry (and thus the atomic cells inside) at a stable address.
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };

  Entry& find_or_create(const std::string& name, std::vector<Label> labels,
                        const std::string& help, MetricKind kind);
  static std::string series_key(const std::string& name,
                                const std::vector<Label>& labels);

  mutable std::mutex mu_;
  std::deque<Entry> entries_;  // stable addresses across growth
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace rs::obs
