#include "parallel/primitives.hpp"

#include <atomic>
#include <numeric>
#include <random>
#include <thread>

#include <gtest/gtest.h>

#include "parallel/rng.hpp"
#include "parallel/write_min.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 100'000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, TeamNeverWiderThanNumWorkers) {
  // The OpenMP default team can be wider than num_workers() (RS_THREADS
  // sets only the latter; anyone may call omp_set_num_threads later).
  std::atomic<int> widest{0};
  {
    const test::WorkerGuard guard(2);
    omp_set_num_threads(4);
    parallel_for(0, 100'000, [&](std::size_t) {
      write_max(widest, omp_get_num_threads());
    });
  }
  EXPECT_GE(widest.load(), 1);
  EXPECT_LE(widest.load(), 2);
}

TEST(ParallelFor, EmptyAndSingleRanges) {
  int count = 0;
  parallel_for(5, 5, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ParallelReduce, SumMatchesSequential) {
  const std::size_t n = 250'000;
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i * 7 + 1;
  const std::uint64_t expect =
      std::accumulate(v.begin(), v.end(), std::uint64_t{0});
  const std::uint64_t got =
      parallel_sum<std::uint64_t>(0, n, [&](std::size_t i) { return v[i]; });
  EXPECT_EQ(got, expect);
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  EXPECT_EQ(parallel_sum<int>(10, 10, [](std::size_t) { return 1; }), 0);
}

class ScanTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScanTest, ExclusiveScanMatchesSequential) {
  const std::size_t n = GetParam();
  SplitRng rng(n);
  std::vector<std::uint64_t> in(n);
  for (std::size_t i = 0; i < n; ++i) in[i] = rng.bounded(1, i, 100);
  std::vector<std::uint64_t> expect(n);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    expect[i] = acc;
    acc += in[i];
  }
  std::vector<std::uint64_t> out;
  const std::uint64_t total = exclusive_scan(in, out);
  EXPECT_EQ(total, acc);
  EXPECT_EQ(out, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanTest,
                         ::testing::Values(0, 1, 2, 100, 4096, 100'000,
                                           1'000'003));

TEST(Scan, InPlaceAliasing) {
  std::vector<std::uint64_t> v{3, 1, 4, 1, 5};
  const std::uint64_t total = exclusive_scan(v, v);
  EXPECT_EQ(total, 14u);
  EXPECT_EQ(v, (std::vector<std::uint64_t>{0, 3, 4, 8, 9}));
}

TEST(WriteMin, LowersAndRejects) {
  std::atomic<std::uint64_t> cell{100};
  EXPECT_TRUE(write_min(cell, std::uint64_t{50}));
  EXPECT_EQ(cell.load(), 50u);
  EXPECT_FALSE(write_min(cell, std::uint64_t{50}));
  EXPECT_FALSE(write_min(cell, std::uint64_t{70}));
  EXPECT_EQ(cell.load(), 50u);
}

TEST(WriteMin, ConcurrentWritersConvergeToMinimum) {
  std::atomic<std::uint64_t> cell{~std::uint64_t{0}};
  std::atomic<int> successes{0};
  const int writers = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < writers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 1000; ++i) {
        if (write_min(cell, std::uint64_t(t * 1000 + i))) {
          successes.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cell.load(), 0u);  // thread 0 iteration 0
  // Each success strictly lowers the value, so successes are bounded by the
  // number of distinct values and at least 1.
  EXPECT_GE(successes.load(), 1);
}

TEST(WriteMax, RaisesOnly) {
  std::atomic<std::uint32_t> cell{10};
  EXPECT_TRUE(write_max(cell, 20u));
  EXPECT_FALSE(write_max(cell, 15u));
  EXPECT_EQ(cell.load(), 20u);
}

TEST(SplitRng, DeterministicAndSeedSensitive) {
  SplitRng a(42);
  SplitRng b(42);
  SplitRng c(43);
  EXPECT_EQ(a.get(1, 2), b.get(1, 2));
  EXPECT_NE(a.get(1, 2), c.get(1, 2));
  EXPECT_NE(a.get(1, 2), a.get(1, 3));
  EXPECT_NE(a.get(1, 2), a.get(2, 2));
}

TEST(SplitRng, BoundedStaysInRangeAndIsRoughlyUniform) {
  SplitRng rng(7);
  const std::uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int trials = 100'000;
  for (int i = 0; i < trials; ++i) {
    const std::uint64_t v =
        rng.bounded(0, static_cast<std::uint64_t>(i), bound);
    ASSERT_LT(v, bound);
    ++counts[v];
  }
  for (const int c : counts) {
    EXPECT_GT(c, trials / 20);  // each bucket within 2x of fair share
    EXPECT_LT(c, trials / 5);
  }
}

TEST(SplitRng, UniformInUnitInterval) {
  SplitRng rng(9);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform(0, static_cast<std::uint64_t>(i));
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Workers, SetAndRestore) {
  const int before = num_workers();
  {
    const test::WorkerGuard guard(2);
    EXPECT_EQ(num_workers(), 2);
    set_num_workers(0);  // clamps to 1
    EXPECT_EQ(num_workers(), 1);
  }
  EXPECT_EQ(num_workers(), before);
}

TEST(Workers, OneInsideAnActiveRegion) {
  // A caller inside a team is one worker of it, so the primitives and
  // engines it calls run inline, whatever size the team came out.
  const test::WorkerGuard guard(3);
  int team = 0;
  int inside = 0;
#pragma omp parallel num_threads(2)
  {
#pragma omp single
    {
      team = omp_get_num_threads();
      inside = num_workers();
    }
  }
  EXPECT_EQ(inside, 1) << "team of " << team;
  EXPECT_EQ(num_workers(), 3);
}

TEST(Workers, OneInsideAnyRegion) {
  // A server worker runs its loop in a one-thread region of its own. That
  // region is not active, but the engines it calls must still stay on its
  // thread instead of opening a team under it.
  const test::WorkerGuard guard(3);
  int inside = 0;
#pragma omp parallel num_threads(1)
  inside = num_workers();
  EXPECT_EQ(inside, 1);
  EXPECT_EQ(num_workers(), 3);
}

TEST(Env, Int64FallbackAndParse) {
  EXPECT_EQ(env_int64("RS_TEST_UNSET_VAR_XYZ", 17), 17);
  ::setenv("RS_TEST_VAR_ABC", "123", 1);
  EXPECT_EQ(env_int64("RS_TEST_VAR_ABC", 0), 123);
  ::setenv("RS_TEST_VAR_ABC", "garbage", 1);
  EXPECT_EQ(env_int64("RS_TEST_VAR_ABC", 5), 5);
  ::unsetenv("RS_TEST_VAR_ABC");
}

TEST(Env, EmptyValueFallsBack) {
  // CI sets RS_THREADS="" for the default-thread matrix leg; an empty
  // value must behave exactly like an unset variable.
  ::setenv("RS_TEST_VAR_EMPTY", "", 1);
  EXPECT_EQ(env_int64("RS_TEST_VAR_EMPTY", 31), 31);
  EXPECT_EQ(env_string("RS_TEST_VAR_EMPTY", "dflt"), "dflt");
  ::unsetenv("RS_TEST_VAR_EMPTY");
}

TEST(Env, StringFallback) {
  EXPECT_EQ(env_string("RS_TEST_UNSET_VAR_XYZ", "dflt"), "dflt");
  ::setenv("RS_TEST_VAR_STR", "hello", 1);
  EXPECT_EQ(env_string("RS_TEST_VAR_STR", "dflt"), "hello");
  ::unsetenv("RS_TEST_VAR_STR");
}

TEST(Env, WorkerCountParsing) {
  // Unset / empty fall back silently (the CI default-thread leg).
  EXPECT_EQ(parse_worker_count(nullptr, 7), 7);
  EXPECT_EQ(parse_worker_count("", 7), 7);

  // Valid counts, including leading whitespace/sign strtoll accepts and
  // the inclusive upper bound.
  EXPECT_EQ(parse_worker_count("1", 7), 1);
  EXPECT_EQ(parse_worker_count("4", 7), 4);
  EXPECT_EQ(parse_worker_count(" 12", 7), 12);
  EXPECT_EQ(parse_worker_count("+8", 7), 8);
  EXPECT_EQ(parse_worker_count("8192", 7), kMaxWorkers);

  // Garbage and trailing junk are rejected, not half-parsed: "12abc" used
  // to silently run with 12 workers.
  EXPECT_EQ(parse_worker_count("garbage", 7), 7);
  EXPECT_EQ(parse_worker_count("12abc", 7), 7);
  EXPECT_EQ(parse_worker_count("4 4", 7), 7);
  EXPECT_EQ(parse_worker_count("3.5", 7), 7);

  // Non-positive, out-of-range, and overflowing values all fall back.
  EXPECT_EQ(parse_worker_count("0", 7), 7);
  EXPECT_EQ(parse_worker_count("-3", 7), 7);
  EXPECT_EQ(parse_worker_count("8193", 7), 7);
  EXPECT_EQ(parse_worker_count("99999999999999999999999", 7), 7);
  EXPECT_EQ(parse_worker_count("-99999999999999999999999", 7), 7);
}

}  // namespace
}  // namespace rs
