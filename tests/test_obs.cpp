// The observability subsystem's own contract (src/obs/):
//
//  * MetricsRegistry — find-or-create returns the SAME stable handle for
//    the same name+labels, distinct handles for distinct label sets, and
//    throws on a kind collision; snapshot() walks in registration order;
//  * Histogram — merge() folds counts/total/sum bucket-wise; the edge
//    cases the serving stack actually produces: empty histogram quantiles,
//    a single sample, and values at the saturating top of the uint64
//    range;
//  * TraceBuffer — fixed capacity drops silently, station_total_ns sums
//    depth-0 spans only, disabled buffers record nothing;
//  * exporters — Prometheus text exposition emits HELP/TYPE once per
//    metric NAME (even across labeled series), samples carry their label
//    sets, and the JSON form round-trips the same values.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rs::obs {
namespace {

// Counts non-overlapping occurrences of `needle` in `hay`.
std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(MetricsRegistry, FindOrCreateReturnsStableSharedHandles) {
  MetricsRegistry reg;
  Counter& a = reg.counter("rs_test_total", {}, "help");
  Counter& b = reg.counter("rs_test_total");
  EXPECT_EQ(&a, &b);  // same series -> same cell
  a.add(3);
  b.add();
  EXPECT_EQ(a.value(), 4u);
  EXPECT_EQ(reg.size(), 1u);

  // Different label sets are different series under the same name.
  Counter& x = reg.counter("rs_labeled_total", {{"reason", "full"}});
  Counter& y = reg.counter("rs_labeled_total", {{"reason", "invalid"}});
  EXPECT_NE(&x, &y);
  x.add(7);
  EXPECT_EQ(y.value(), 0u);
  // Label ORDER does not create a new series.
  Counter& x2 = reg.counter(
      "rs_multi_total", {{"a", "1"}, {"b", "2"}});
  Counter& x3 = reg.counter(
      "rs_multi_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&x2, &x3);
  EXPECT_EQ(reg.size(), 4u);
}

TEST(MetricsRegistry, KindCollisionThrows) {
  MetricsRegistry reg;
  reg.counter("rs_thing");
  EXPECT_THROW(reg.gauge("rs_thing"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("rs_thing"), std::invalid_argument);
  // Same name with different labels may be a different kind — the key is
  // name+labels, not name alone (matches the registry's series keying).
  EXPECT_NO_THROW(reg.gauge("rs_thing", {{"as", "gauge"}}));
}

TEST(MetricsRegistry, SnapshotPreservesRegistrationOrderAndValues) {
  MetricsRegistry reg;
  reg.counter("c_first").add(10);
  reg.gauge("g_second").set(2.5);
  reg.histogram("h_third").record(99);

  const std::vector<MetricSample> snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "c_first");
  EXPECT_EQ(snap[0].kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(snap[0].value, 10.0);
  EXPECT_EQ(snap[1].name, "g_second");
  EXPECT_DOUBLE_EQ(snap[1].value, 2.5);
  EXPECT_EQ(snap[2].name, "h_third");
  EXPECT_EQ(snap[2].hist.total, 1u);
  EXPECT_EQ(snap[2].hist.sum, 99u);
}

TEST(MetricsRegistry, GaugeRecordMaxIsMonotone) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("rs_watermark");
  g.record_max(4.0);
  g.record_max(2.0);  // lower: no effect
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.record_max(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
  g.set(1.0);  // set() still overwrites downward
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
}

TEST(MetricsRegistry, ConcurrentRegistrationAndUpdatesAreSafe) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      // Every thread registers the SAME series and hammers it — the
      // find-or-create path and the update path must both be safe.
      Counter& c = reg.counter("rs_shared_total");
      Histogram& h = reg.histogram("rs_shared_us");
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.record(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(reg.counter("rs_shared_total").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(reg.histogram("rs_shared_us").count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsHistogram, EmptyQuantilesAndSumAreZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.value_at_quantile(0.0), 0u);
  EXPECT_EQ(h.value_at_quantile(0.5), 0u);
  EXPECT_EQ(h.value_at_quantile(1.0), 0u);
}

TEST(ObsHistogram, SingleSampleDominatesEveryQuantile) {
  Histogram h;
  h.record(777);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 777u);
  const std::uint64_t p0 = h.value_at_quantile(0.0);
  const std::uint64_t p50 = h.value_at_quantile(0.5);
  const std::uint64_t p999 = h.value_at_quantile(0.999);
  EXPECT_EQ(p0, p50);
  EXPECT_EQ(p50, p999);
  // Conservative upper bound within the documented 1/32 relative error.
  EXPECT_GE(p50, 777u);
  EXPECT_LE(p50, 777u + 777u / Histogram::kSubBuckets + 1);
}

TEST(ObsHistogram, SaturatingTopBucketStaysFiniteAndOrdered) {
  Histogram h;
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  h.record(top);
  h.record(top - 1);
  h.record(1);
  EXPECT_EQ(h.count(), 3u);
  // The max value maps to the last bucket and quantile reads return that
  // bucket's upper bound — which must itself be representable (no wrap).
  EXPECT_EQ(Histogram::bucket_index(top), Histogram::kBuckets - 1);
  EXPECT_EQ(h.value_at_quantile(1.0),
            Histogram::bucket_upper(Histogram::kBuckets - 1));
  EXPECT_GE(h.value_at_quantile(1.0), top - top / Histogram::kSubBuckets);
  EXPECT_LE(h.value_at_quantile(0.0), 1u);
}

TEST(ObsHistogram, MergeFoldsCountsTotalsAndSums) {
  Histogram a;
  Histogram b;
  for (std::uint64_t v : {1ull, 10ull, 100ull}) a.record(v);
  for (std::uint64_t v : {1000ull, 10000ull}) b.record(v);
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_EQ(a.sum(), 1u + 10u + 100u + 1000u + 10000u);
  // b is untouched; a's quantiles now cover b's range.
  EXPECT_EQ(b.count(), 2u);
  EXPECT_GE(a.value_at_quantile(1.0), 10000u);
  EXPECT_LE(a.value_at_quantile(0.0), 1u);

  // Merging an empty histogram is a no-op.
  const std::uint64_t before = a.count();
  a.merge(Histogram{});
  EXPECT_EQ(a.count(), before);
}

TEST(TraceBuffer, CapacityDropsSilentlyAndStationsSumDepthZeroOnly) {
  TraceBuffer tb;
  EXPECT_EQ(tb.size, 0u);
  tb.add(SpanId::kAdmission, 0, 0, 5);  // disabled: ignored
  EXPECT_EQ(tb.size, 0u);

  tb.enabled = true;
  tb.add(SpanId::kAdmission, 0, 0, 5);
  tb.add(SpanId::kQueueWait, 0, 5, 10);
  tb.add(SpanId::kRelax, 1, 0, 100);  // depth 1: excluded from stations
  EXPECT_EQ(tb.size, 3u);
  EXPECT_EQ(tb.station_total_ns(), 15u);

  for (int i = 0; i < 40; ++i) tb.add(SpanId::kEngine, 0, 0, 1);
  EXPECT_EQ(tb.size, TraceBuffer::kCapacity);  // silently capped
}

TEST(TraceEnv, SampleParsesUnsetZeroAndPositive) {
  ::unsetenv("RS_TRACE");
  EXPECT_EQ(trace_sample_from_env(), 0u);
  ::setenv("RS_TRACE", "0", 1);
  EXPECT_EQ(trace_sample_from_env(), 0u);
  ::setenv("RS_TRACE", "16", 1);
  EXPECT_EQ(trace_sample_from_env(), 16u);
  ::setenv("RS_TRACE", "-3", 1);
  EXPECT_EQ(trace_sample_from_env(), 0u);
  ::setenv("RS_TRACE", "4294967295", 1);
  EXPECT_EQ(trace_sample_from_env(), 4294967295u);
  // Out of range or not a number: off, never wrapped or truncated.
  ::setenv("RS_TRACE", "4294967297", 1);
  EXPECT_EQ(trace_sample_from_env(), 0u);
  ::setenv("RS_TRACE", "4294967296", 1);
  EXPECT_EQ(trace_sample_from_env(), 0u);
  ::setenv("RS_TRACE", "10x", 1);
  EXPECT_EQ(trace_sample_from_env(), 0u);
  ::unsetenv("RS_TRACE");
}

TEST(Exporters, PrometheusEmitsHeadersOncePerNameAndAllSeries) {
  MetricsRegistry reg;
  reg.counter("rs_req_total", {{"reason", "full"}}, "Rejections").add(2);
  reg.counter("rs_req_total", {{"reason", "invalid"}}, "Rejections").add(5);
  reg.gauge("rs_epoch", {}, "Epoch").set(3);
  reg.histogram("rs_lat_us", {}, "Latency").record(100);

  const std::string text = to_prometheus(reg);
  // One HELP and one TYPE for the two labeled rs_req_total series.
  EXPECT_EQ(count_occurrences(text, "# HELP rs_req_total"), 1u);
  EXPECT_EQ(count_occurrences(text, "# TYPE rs_req_total counter"), 1u);
  EXPECT_NE(text.find("rs_req_total{reason=\"full\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("rs_req_total{reason=\"invalid\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rs_epoch gauge"), std::string::npos);
  EXPECT_NE(text.find("rs_epoch 3"), std::string::npos);
  // Histograms render as a summary: quantiles + _sum + _count.
  EXPECT_NE(text.find("# TYPE rs_lat_us summary"), std::string::npos);
  EXPECT_NE(text.find("rs_lat_us{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("rs_lat_us_sum 100"), std::string::npos);
  EXPECT_NE(text.find("rs_lat_us_count 1"), std::string::npos);
  // Exposition ends with a newline (scrapers require it).
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(Exporters, JsonCarriesTheSameValues) {
  MetricsRegistry reg;
  reg.counter("rs_c", {{"k", "v"}}).add(4);
  reg.gauge("rs_g").set(1.5);
  reg.histogram("rs_h").record(50);

  const std::string json = to_json(reg);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"name\":\"rs_c\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":\"v\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":4"), std::string::npos);
  EXPECT_NE(json.find("\"value\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":50"), std::string::npos);
}

}  // namespace
}  // namespace rs::obs
