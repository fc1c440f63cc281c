#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/rng.hpp"
#include "pq/binary_heap.hpp"

namespace rs {
namespace {

// ---------------------------------------------------------------- IndexedHeap

TEST(IndexedHeap, BasicInsertExtract) {
  IndexedHeap<std::uint64_t> h(10);
  EXPECT_TRUE(h.empty());
  h.insert_or_decrease(3, 30);
  h.insert_or_decrease(1, 10);
  h.insert_or_decrease(2, 20);
  EXPECT_EQ(h.size(), 3u);
  EXPECT_EQ(h.min().id, 1u);
  EXPECT_EQ(h.extract_min().key, 10u);
  EXPECT_EQ(h.extract_min().id, 2u);
  EXPECT_EQ(h.extract_min().id, 3u);
  EXPECT_TRUE(h.empty());
}

TEST(IndexedHeap, DecreaseKeyMovesElementUp) {
  IndexedHeap<std::uint64_t> h(10);
  for (Vertex v = 0; v < 10; ++v) h.insert_or_decrease(v, 100 + v);
  EXPECT_TRUE(h.insert_or_decrease(9, 1));
  EXPECT_EQ(h.min().id, 9u);
  EXPECT_EQ(h.key_of(9), 1u);
}

TEST(IndexedHeap, IncreaseKeyRejected) {
  IndexedHeap<std::uint64_t> h(4);
  h.insert_or_decrease(0, 5);
  EXPECT_FALSE(h.insert_or_decrease(0, 7));
  EXPECT_EQ(h.key_of(0), 5u);
}

TEST(IndexedHeap, RemoveArbitrary) {
  IndexedHeap<std::uint64_t> h(8);
  for (Vertex v = 0; v < 8; ++v) h.insert_or_decrease(v, v * 3);
  h.remove(0);  // remove the min
  h.remove(4);  // remove an interior element
  EXPECT_FALSE(h.contains(0));
  EXPECT_FALSE(h.contains(4));
  std::vector<Vertex> order;
  while (!h.empty()) order.push_back(h.extract_min().id);
  EXPECT_EQ(order, (std::vector<Vertex>{1, 2, 3, 5, 6, 7}));
}

TEST(IndexedHeap, ClearResetsMembership) {
  IndexedHeap<std::uint64_t> h(4);
  h.insert_or_decrease(2, 1);
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_FALSE(h.contains(2));
  h.insert_or_decrease(2, 9);
  EXPECT_EQ(h.key_of(2), 9u);
}

class HeapRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(HeapRandomTest, MatchesReferenceHeapUnderMixedOps) {
  const int seed = GetParam();
  SplitRng rng(static_cast<std::uint64_t>(seed));
  const Vertex n = 500;
  IndexedHeap<std::uint64_t> h(n);
  std::vector<std::uint64_t> best(n, ~std::uint64_t{0});

  // Mixed insert/decrease workload, then full drain; the heap must agree
  // with the reference min tracking.
  std::uint64_t op = 0;
  for (int round = 0; round < 3000; ++round) {
    const Vertex v = static_cast<Vertex>(rng.bounded(0, op++, n));
    const std::uint64_t key = rng.bounded(1, op++, 1'000'000);
    if (key < best[v]) best[v] = key;
    h.insert_or_decrease(v, key);
    EXPECT_EQ(h.key_of(v), best[v]);
  }
  std::size_t inserted = 0;
  for (const std::uint64_t b : best) {
    if (b != ~std::uint64_t{0}) ++inserted;
  }
  ASSERT_EQ(h.size(), inserted);
  std::uint64_t last = 0;
  while (!h.empty()) {
    const auto eh = h.extract_min();
    EXPECT_GE(eh.key, last);  // nondecreasing extraction order
    last = eh.key;
    EXPECT_EQ(eh.key, best[eh.id]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapRandomTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace rs
