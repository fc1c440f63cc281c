// Determinism and schedule tests for the benchmark's load generator.
// Plain executable (no test framework): prints each failed check and
// exits non-zero if any failed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.hpp"
#include "loadgen.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using perfbench::Clock;

rs::Graph small_road() { return perfbench::road_graph(20); }

std::vector<perfbench::PointQuery> uniform_stream(const perfbench::RequestStreams& s,
                                                  std::uint64_t phase, std::size_t n) {
  std::vector<perfbench::PointQuery> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(s.uniform(phase, i));
  return out;
}

std::vector<perfbench::PointQuery> skewed_stream(const perfbench::RequestStreams& s,
                                                 const perfbench::ZipfSampler& z,
                                                 std::size_t n) {
  std::vector<perfbench::PointQuery> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(s.skewed(z, 2, i));
  return out;
}

bool same_updates(const std::vector<rs::WeightUpdate>& a,
                  const std::vector<rs::WeightUpdate>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](const auto& x, const auto& y) {
           return x.u == y.u && x.v == y.v && x.w == y.w;
         });
}

void test_same_seed_same_streams() {
  const rs::Graph g = small_road();
  const perfbench::ZipfSampler zipf(256, 1.0);
  const perfbench::RequestStreams a(7, g.num_vertices(), 256);
  const perfbench::RequestStreams b(7, g.num_vertices(), 256);
  CHECK(a.pool() == b.pool());
  CHECK(uniform_stream(a, 1, 500) == uniform_stream(b, 1, 500));
  CHECK(skewed_stream(a, zipf, 500) == skewed_stream(b, zipf, 500));
  for (std::uint64_t j = 0; j < 6; ++j) {
    CHECK(same_updates(perfbench::update_batch(7, g, j), perfbench::update_batch(7, g, j)));
  }
}

void test_other_seed_other_streams() {
  const rs::Graph g = small_road();
  const perfbench::ZipfSampler zipf(256, 1.0);
  const perfbench::RequestStreams a(7, g.num_vertices(), 256);
  const perfbench::RequestStreams b(8, g.num_vertices(), 256);
  CHECK(a.pool() != b.pool());
  CHECK(!(uniform_stream(a, 1, 500) == uniform_stream(b, 1, 500)));
  CHECK(!(skewed_stream(a, zipf, 500) == skewed_stream(b, zipf, 500)));
  CHECK(!same_updates(perfbench::update_batch(7, g, 2), perfbench::update_batch(8, g, 2)));
  // Phases of one seed draw different requests too.
  CHECK(!(uniform_stream(a, 1, 500) == uniform_stream(a, 2, 500)));
}

void test_update_batches() {
  const rs::Graph g = small_road();
  const std::size_t sizes[] = {1, 8, 64, 1, 8, 64};
  for (std::uint64_t j = 0; j < 6; ++j) {
    const std::vector<rs::WeightUpdate> batch = perfbench::update_batch(3, g, j);
    CHECK(batch.size() == sizes[j]);
    for (const rs::WeightUpdate& u : batch) {
      const auto nbrs = g.neighbors(u.u);
      CHECK(std::find(nbrs.begin(), nbrs.end(), u.v) != nbrs.end());
      CHECK(u.w >= 1 && u.w <= 10'000);
    }
  }
}

void test_zipf_skew() {
  const perfbench::ZipfSampler zipf(256, 1.0);
  const rs::Graph g = small_road();
  const perfbench::RequestStreams s(11, g.num_vertices(), 256);
  std::vector<int> hits(256, 0);
  for (std::size_t i = 0; i < 20'000; ++i) ++hits[s.skewed(zipf, 2, i).slot];
  // Rank r has weight 1/(r+1): slot 0 is drawn about twice as often as
  // slot 1 and about 100 times as often as slot 99.
  CHECK(hits[0] > hits[1]);
  CHECK(hits[0] > 50 * hits[99]);
  CHECK(zipf.sample(0.0) == 0);
  CHECK(zipf.sample(0.999999999) == 255);
}

void test_due_times_fixed_in_advance() {
  for (std::uint64_t i : {0u, 1u, 999u, 123456u}) {
    CHECK(perfbench::due_offset(i, 1000.0) == std::chrono::microseconds(1000 * i));
  }
  CHECK(perfbench::due_offset(3, 400.0) == std::chrono::microseconds(7500));
}

/// A stalled submit delays the requests due during the stall; the schedule
/// does not shift, so later requests are back on time and every latency
/// counts from the request's due time.
void test_stall_does_not_shift_schedule() {
  perfbench::OpenLoopOptions o;
  o.rate = 1000.0;
  o.seconds = 0.2;
  std::vector<double> latency(200, -1.0);
  const perfbench::SubmitFn submit = [](std::uint64_t i,
                                        std::future<rs::QueryResponse>& out) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::promise<rs::QueryResponse> p;
    p.set_value(rs::QueryResponse{});
    out = p.get_future();
    return true;
  };
  const perfbench::CompleteFn complete = [&](std::uint64_t i, rs::QueryResponse&,
                                             Clock::time_point due, Clock::time_point,
                                             Clock::time_point done) {
    latency[i] = perfbench::ms_between(due, done);
  };
  const perfbench::OpenLoopResult r = perfbench::run_open_loop(o, submit, complete);
  CHECK(r.sent == 200);
  CHECK(r.accepted == 200);
  CHECK(r.lag_ms.size() == 200);
  CHECK(r.lag_ms[1] >= 90.0);           // due at 1 ms, sent after the stall
  CHECK(latency[1] >= 90.0);            // and its latency includes the wait
  CHECK(r.lag_ms[199] < 50.0);          // due at 199 ms: back on schedule
  CHECK(r.elapsed_s < 0.28);            // not 0.1 s stall + 0.2 s schedule
}

/// Slow completions do not slow the sender: an open loop keeps offering
/// at its rate while earlier requests are outstanding.
void test_slow_completions_do_not_block_sender() {
  constexpr std::size_t kN = 100;
  perfbench::OpenLoopOptions o;
  o.rate = 1000.0;
  o.seconds = 0.1;
  std::vector<std::promise<rs::QueryResponse>> promises(kN);
  std::vector<Clock::time_point> created(kN);
  std::atomic<std::size_t> made{0};
  std::thread fulfiller([&] {
    for (std::size_t i = 0; i < kN; ++i) {
      while (made.load(std::memory_order_acquire) <= i) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      std::this_thread::sleep_until(created[i] + std::chrono::milliseconds(30));
      promises[i].set_value(rs::QueryResponse{});
    }
  });
  const perfbench::SubmitFn submit = [&](std::uint64_t i,
                                         std::future<rs::QueryResponse>& out) {
    out = promises[i].get_future();
    created[i] = Clock::now();
    made.store(i + 1, std::memory_order_release);
    return true;
  };
  std::size_t completed = 0;
  const perfbench::CompleteFn complete = [&](std::uint64_t, rs::QueryResponse&,
                                             Clock::time_point, Clock::time_point,
                                             Clock::time_point) { ++completed; };
  const perfbench::OpenLoopResult r = perfbench::run_open_loop(o, submit, complete);
  fulfiller.join();
  CHECK(r.sent == kN);
  CHECK(completed == kN);
  CHECK(*std::max_element(r.lag_ms.begin(), r.lag_ms.end()) < 20.0);
  CHECK(r.max_in_flight >= 20);  // ~30 requests outstanding at 1000/s
  CHECK(perfbench::quantile(r.latency_ms, 0.5) >= 29.0);
}

/// A request answered synchronously (its future ready when submit returns)
/// completes then, even while an earlier request is still outstanding.
void test_synchronous_answers_not_held_behind_slow_ones() {
  perfbench::OpenLoopOptions o;
  o.rate = 1000.0;
  o.seconds = 0.05;
  std::promise<rs::QueryResponse> slow;
  std::thread fulfiller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    slow.set_value(rs::QueryResponse{});
  });
  const perfbench::SubmitFn submit = [&](std::uint64_t i,
                                         std::future<rs::QueryResponse>& out) {
    if (i == 0) {
      out = slow.get_future();
    } else {
      std::promise<rs::QueryResponse> p;
      p.set_value(rs::QueryResponse{});
      out = p.get_future();
    }
    return true;
  };
  std::vector<double> latency(50, -1.0);
  const perfbench::CompleteFn complete = [&](std::uint64_t i, rs::QueryResponse&,
                                             Clock::time_point due, Clock::time_point,
                                             Clock::time_point done) {
    latency[i] = perfbench::ms_between(due, done);
  };
  perfbench::run_open_loop(o, submit, complete);
  fulfiller.join();
  CHECK(latency[0] >= 90.0);
  CHECK(latency[1] < 20.0);
  CHECK(latency[49] < 20.0);
}

void test_quantile() {
  CHECK(perfbench::quantile({}, 0.5) == 0.0);
  CHECK(perfbench::quantile({3, 1, 2}, 0.5) == 2.0);
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  CHECK(perfbench::quantile(v, 0.99) == 99.0);
  CHECK(perfbench::quantile(v, 0.9) == 90.0);
  CHECK(perfbench::quantile(v, 1.0) == 100.0);
}

}  // namespace

int main() {
  test_same_seed_same_streams();
  test_other_seed_other_streams();
  test_update_batches();
  test_zipf_skew();
  test_due_times_fixed_in_advance();
  test_stall_does_not_shift_schedule();
  test_slow_completions_do_not_block_sender();
  test_synchronous_answers_not_held_behind_slow_ones();
  test_quantile();
  if (g_failures == 0) std::printf("perfbench loadgen tests: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
