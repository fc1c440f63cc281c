#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/rng.hpp"
#include "pq/binary_heap.hpp"
#include "pq/pairing_heap.hpp"

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
  PairingHeap<std::uint64_t> p(n);
  std::vector<std::uint64_t> best(n, ~std::uint64_t{0});

  // Mixed insert/decrease workload, then full drain; both heaps must agree
  // with the reference min tracking.
  std::uint64_t op = 0;
  for (int round = 0; round < 3000; ++round) {
    const Vertex v = static_cast<Vertex>(rng.bounded(0, op++, n));
    const std::uint64_t key = rng.bounded(1, op++, 1'000'000);
    if (key < best[v]) best[v] = key;
    h.insert_or_decrease(v, key);
    p.insert_or_decrease(v, key);
    EXPECT_EQ(h.key_of(v), best[v]);
    EXPECT_EQ(p.key_of(v), best[v]);
  }
  ASSERT_EQ(h.size(), p.size());
  std::uint64_t last = 0;
  while (!h.empty()) {
    const auto eh = h.extract_min();
    const auto ep = p.extract_min();
    EXPECT_EQ(eh.key, ep.key);
    EXPECT_GE(eh.key, last);  // nondecreasing extraction order
    last = eh.key;
    EXPECT_EQ(eh.key, best[eh.id]);
  }
  EXPECT_TRUE(p.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapRandomTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------- PairingHeap

TEST(PairingHeap, DeepMeldDetachStress) {
  // Exercises the meld/detach/two-pass-merge machinery (the code GCC's
  // -Warray-bounds false-positives on) with long decrease-key chains that
  // force detaches from deep child lists, validated against a binary heap.
  const Vertex n = 512;
  PairingHeap<std::uint64_t> p(n);
  IndexedHeap<std::uint64_t> ref(n);
  SplitRng rng(4242);
  // Keys are kept globally unique (low bits carry the vertex id) so both
  // heaps extract identical (key, id) sequences — no tie ambiguity.
  for (std::uint64_t round = 0; round < 4; ++round) {
    for (Vertex v = 0; v < n; ++v) {
      const std::uint64_t key = (1 + rng.get(round, v) % 100'000) * n + v;
      EXPECT_EQ(p.insert_or_decrease(v, key), ref.insert_or_decrease(v, key));
    }
    // Decrease random subsets repeatedly: detach from arbitrary depths.
    for (std::uint64_t i = 0; i < 2000; ++i) {
      const Vertex v = static_cast<Vertex>(rng.bounded(round + 10, i, n));
      if (!p.contains(v)) continue;
      const std::uint64_t q = p.key_of(v) / n;
      if (q == 0) continue;
      const std::uint64_t nk = (rng.get(round + 20, i) % q) * n + v;
      EXPECT_EQ(p.insert_or_decrease(v, nk), ref.insert_or_decrease(v, nk));
      ASSERT_EQ(p.key_of(v), ref.key_of(v));
    }
    // Drain half, interleaving fresh inserts to rebuild structure.
    for (Vertex i = 0; i < n / 2; ++i) {
      ASSERT_FALSE(p.empty());
      const auto got = p.extract_min();
      const auto want = ref.extract_min();
      ASSERT_EQ(got.key, want.key);
      ASSERT_EQ(got.id, want.id);
      ASSERT_EQ(p.size(), ref.size());
    }
  }
  while (!p.empty()) {
    ASSERT_EQ(p.extract_min().key, ref.extract_min().key);
  }
  EXPECT_TRUE(ref.empty());
}

TEST(PairingHeap, BasicOrder) {
  PairingHeap<std::uint64_t> h(5);
  h.insert_or_decrease(0, 50);
  h.insert_or_decrease(1, 10);
  h.insert_or_decrease(2, 30);
  EXPECT_EQ(h.min_id(), 1u);
  EXPECT_EQ(h.min_key(), 10u);
  EXPECT_EQ(h.extract_min().id, 1u);
  EXPECT_EQ(h.extract_min().id, 2u);
  EXPECT_EQ(h.extract_min().id, 0u);
}

TEST(PairingHeap, DecreaseKeyOnNonRoot) {
  PairingHeap<std::uint64_t> h(6);
  for (Vertex v = 0; v < 6; ++v) h.insert_or_decrease(v, 100 + v);
  EXPECT_TRUE(h.insert_or_decrease(5, 1));
  EXPECT_EQ(h.min_id(), 5u);
  EXPECT_FALSE(h.insert_or_decrease(5, 2));  // raise rejected
}

TEST(PairingHeap, ReinsertAfterExtract) {
  PairingHeap<std::uint64_t> h(3);
  h.insert_or_decrease(0, 5);
  h.extract_min();
  EXPECT_FALSE(h.contains(0));
  h.insert_or_decrease(0, 9);
  EXPECT_TRUE(h.contains(0));
  EXPECT_EQ(h.min_key(), 9u);
}

TEST(PairingHeap, ClearEmptiesEverything) {
  PairingHeap<std::uint64_t> h(4);
  h.insert_or_decrease(1, 1);
  h.insert_or_decrease(2, 2);
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_FALSE(h.contains(1));
}

}  // namespace
}  // namespace rs
