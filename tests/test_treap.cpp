#include "pset/treap.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/rng.hpp"

namespace rs {
namespace {

using IntTreap = Treap<std::uint64_t>;
using PairTreap = Treap<std::pair<std::uint64_t, std::uint32_t>>;

TEST(Treap, InsertContainsErase) {
  IntTreap t;
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.insert(5));
  EXPECT_TRUE(t.insert(3));
  EXPECT_TRUE(t.insert(8));
  EXPECT_FALSE(t.insert(5));  // duplicate
  EXPECT_EQ(t.size(), 3u);
  EXPECT_TRUE(t.contains(3));
  EXPECT_FALSE(t.contains(4));
  EXPECT_TRUE(t.erase(3));
  EXPECT_FALSE(t.erase(3));
  EXPECT_EQ(t.size(), 2u);
}

TEST(Treap, MinAndExtractMin) {
  IntTreap t;
  for (const std::uint64_t k : {9, 2, 7, 4}) t.insert(k);
  EXPECT_EQ(t.min(), 2u);
  EXPECT_EQ(t.extract_min(), 2u);
  EXPECT_EQ(t.extract_min(), 4u);
  EXPECT_EQ(t.size(), 2u);
}

TEST(Treap, ToVectorIsSorted) {
  IntTreap t;
  SplitRng rng(1);
  for (int i = 0; i < 1000; ++i) t.insert(rng.bounded(0, i, 10000));
  const auto v = t.to_vector();
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  EXPECT_TRUE(std::adjacent_find(v.begin(), v.end()) == v.end());  // unique
  EXPECT_EQ(v.size(), t.size());
}

TEST(Treap, SplitLeqPartitionsByPivot) {
  IntTreap t;
  for (std::uint64_t k = 0; k < 100; ++k) t.insert(k * 2);  // evens 0..198
  IntTreap lo = t.split_leq(50);
  const auto lo_v = lo.to_vector();
  const auto hi_v = t.to_vector();
  EXPECT_EQ(lo_v.size(), 26u);  // 0,2,...,50
  EXPECT_EQ(hi_v.size(), 74u);
  EXPECT_EQ(lo_v.back(), 50u);
  EXPECT_EQ(hi_v.front(), 52u);
}

TEST(Treap, SplitLeqOnBoundaryValues) {
  IntTreap t;
  t.insert(10);
  IntTreap below = t.split_leq(9);
  EXPECT_TRUE(below.empty());
  EXPECT_EQ(t.size(), 1u);
  IntTreap at = t.split_leq(10);
  EXPECT_EQ(at.size(), 1u);
  EXPECT_TRUE(t.empty());
}

TEST(Treap, FromSortedBuildsEquivalentSet) {
  std::vector<std::uint64_t> keys(10'000);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 3 * i + 1;
  IntTreap t = IntTreap::from_sorted(keys);
  EXPECT_EQ(t.size(), keys.size());
  EXPECT_EQ(t.to_vector(), keys);
}

TEST(Treap, CanonicalShapeIndependentOfInsertionOrder) {
  // Hash priorities make the shape a function of the key set; height must
  // agree however the set was built.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 2000; ++k) keys.push_back(k * 7 + 3);
  IntTreap a = IntTreap::from_sorted(keys);
  IntTreap b;
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) b.insert(*it);
  EXPECT_EQ(a.height(), b.height());
  EXPECT_EQ(a.to_vector(), b.to_vector());
}

TEST(Treap, HeightIsLogarithmic) {
  const std::size_t n = 100'000;
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = i;
  IntTreap t = IntTreap::from_sorted(keys);
  // Random treap height concentrates near 2.99 log2 n; allow slack.
  EXPECT_LE(t.height(), static_cast<std::size_t>(6 * std::log2(double(n))));
}

struct SetOpCase {
  std::size_t size_a;
  std::size_t size_b;
  std::uint64_t seed;
};

class TreapSetOpTest : public ::testing::TestWithParam<SetOpCase> {};

TEST_P(TreapSetOpTest, UnionMatchesStdSet) {
  const auto [na, nb, seed] = GetParam();
  SplitRng rng(seed);
  std::set<std::uint64_t> sa, sb;
  IntTreap ta, tb;
  for (std::size_t i = 0; i < na; ++i) {
    const std::uint64_t k = rng.bounded(0, i, 4 * (na + nb) + 1);
    sa.insert(k);
    ta.insert(k);
  }
  for (std::size_t i = 0; i < nb; ++i) {
    const std::uint64_t k = rng.bounded(1, i, 4 * (na + nb) + 1);
    sb.insert(k);
    tb.insert(k);
  }
  std::set<std::uint64_t> expect = sa;
  expect.insert(sb.begin(), sb.end());
  ta.union_with(std::move(tb));
  EXPECT_EQ(ta.to_vector(),
            std::vector<std::uint64_t>(expect.begin(), expect.end()));
  EXPECT_TRUE(tb.empty());
}

TEST_P(TreapSetOpTest, DifferenceMatchesStdSet) {
  const auto [na, nb, seed] = GetParam();
  SplitRng rng(seed + 1000);
  std::set<std::uint64_t> sa, sb;
  IntTreap ta, tb;
  for (std::size_t i = 0; i < na; ++i) {
    const std::uint64_t k = rng.bounded(0, i, 2 * (na + nb) + 1);
    sa.insert(k);
    ta.insert(k);
  }
  for (std::size_t i = 0; i < nb; ++i) {
    const std::uint64_t k = rng.bounded(1, i, 2 * (na + nb) + 1);
    sb.insert(k);
    tb.insert(k);
  }
  std::vector<std::uint64_t> expect;
  std::set_difference(sa.begin(), sa.end(), sb.begin(), sb.end(),
                      std::back_inserter(expect));
  ta.subtract(std::move(tb));
  EXPECT_EQ(ta.to_vector(), expect);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreapSetOpTest,
    ::testing::Values(SetOpCase{0, 0, 1}, SetOpCase{10, 0, 2},
                      SetOpCase{0, 10, 3}, SetOpCase{100, 100, 4},
                      SetOpCase{1000, 10, 5}, SetOpCase{10, 1000, 6},
                      SetOpCase{5000, 5000, 7}, SetOpCase{20000, 20000, 8}));

TEST(Treap, UnionWithOverlapDropsDuplicates) {
  IntTreap a, b;
  for (std::uint64_t k = 0; k < 100; ++k) a.insert(k);
  for (std::uint64_t k = 50; k < 150; ++k) b.insert(k);
  a.union_with(std::move(b));
  EXPECT_EQ(a.size(), 150u);
}

TEST(Treap, PairKeysOrderLexicographically) {
  PairTreap t;
  t.insert({5, 2});
  t.insert({5, 1});
  t.insert({3, 9});
  EXPECT_EQ(t.min(), (std::pair<std::uint64_t, std::uint32_t>{3, 9}));
  PairTreap lo = t.split_leq({5, 1});
  EXPECT_EQ(lo.size(), 2u);  // (3,9) and (5,1)
  EXPECT_EQ(t.size(), 1u);   // (5,2)
}

TEST(Treap, MoveSemantics) {
  IntTreap a;
  a.insert(1);
  a.insert(2);
  IntTreap b = std::move(a);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): defined state
  IntTreap c;
  c.insert(99);
  c = std::move(b);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_FALSE(c.contains(99));
}

TEST(Treap, StressMixedOperationsAgainstStdSet) {
  SplitRng rng(99);
  std::set<std::uint64_t> ref;
  IntTreap t;
  std::uint64_t op = 0;
  for (int round = 0; round < 20'000; ++round) {
    const std::uint64_t k = rng.bounded(0, op++, 500);
    switch (rng.bounded(1, op++, 3)) {
      case 0:
        EXPECT_EQ(t.insert(k), ref.insert(k).second);
        break;
      case 1:
        EXPECT_EQ(t.erase(k), ref.erase(k) > 0);
        break;
      default:
        EXPECT_EQ(t.contains(k), ref.count(k) > 0);
    }
    if (round % 4096 == 0 && !ref.empty()) {
      EXPECT_EQ(t.min(), *ref.begin());
    }
  }
  EXPECT_EQ(t.to_vector(), std::vector<std::uint64_t>(ref.begin(), ref.end()));
}

}  // namespace
}  // namespace rs
