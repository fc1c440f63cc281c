// Priority-queue microbenchmarks: the indexed d-ary heap and the treap
// under Dijkstra-like workloads (insert / decrease-key / extract-min
// mixes).
#include <benchmark/benchmark.h>

#include "parallel/rng.hpp"
#include "pq/binary_heap.hpp"
#include "pset/treap.hpp"

namespace {

using namespace rs;

constexpr Vertex kN = 100'000;

template <typename Heap>
void dijkstra_like_workload(Heap& h, const SplitRng& rng) {
  std::uint64_t op = 0;
  // Seed, then alternate extract-min with a burst of decrease/inserts —
  // the pattern Dijkstra produces.
  for (Vertex v = 0; v < kN / 10; ++v) {
    h.insert_or_decrease(v, rng.get(0, op++) % 1'000'000);
  }
  while (!h.empty()) {
    const auto e = h.extract_min();
    for (int j = 0; j < 3; ++j) {
      const Vertex v = static_cast<Vertex>(rng.bounded(1, op++, kN));
      const auto key = e.key + 1 + rng.get(2, op++) % 1000;
      if (v != e.id) h.insert_or_decrease(v, key);
      if (h.size() > kN / 5) break;
    }
    if (op > 400'000) break;
  }
}

void BM_IndexedHeapDijkstraMix(benchmark::State& state) {
  const SplitRng rng(1);
  for (auto _ : state) {
    IndexedHeap<std::uint64_t> h(kN);
    dijkstra_like_workload(h, rng);
    benchmark::DoNotOptimize(h.size());
  }
}
BENCHMARK(BM_IndexedHeapDijkstraMix)->Unit(benchmark::kMillisecond);

void BM_TreapInsertExtract(benchmark::State& state) {
  const SplitRng rng(2);
  for (auto _ : state) {
    Treap<std::uint64_t> t;
    for (std::uint64_t i = 0; i < 50'000; ++i) t.insert(rng.get(0, i));
    while (!t.empty()) benchmark::DoNotOptimize(t.extract_min());
  }
}
BENCHMARK(BM_TreapInsertExtract)->Unit(benchmark::kMillisecond);

void BM_TreapBulkUnion(benchmark::State& state) {
  // The Algorithm 2 batch shape: union a sorted batch into a large set.
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> base_keys;
  for (std::uint64_t i = 0; i < 200'000; ++i) base_keys.push_back(2 * i);
  for (auto _ : state) {
    state.PauseTiming();
    Treap<std::uint64_t> base = Treap<std::uint64_t>::from_sorted(base_keys);
    std::vector<std::uint64_t> batch_keys;
    for (std::size_t i = 0; i < batch; ++i) {
      batch_keys.push_back(2 * (i * 37 % 300'000) + 1);
    }
    std::sort(batch_keys.begin(), batch_keys.end());
    batch_keys.erase(std::unique(batch_keys.begin(), batch_keys.end()),
                     batch_keys.end());
    Treap<std::uint64_t> add = Treap<std::uint64_t>::from_sorted(batch_keys);
    state.ResumeTiming();
    base.union_with(std::move(add));
    benchmark::DoNotOptimize(base.size());
  }
}
BENCHMARK(BM_TreapBulkUnion)->Arg(100)->Arg(10'000)->Arg(100'000);

void BM_TreapSplit(benchmark::State& state) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 200'000; ++i) keys.push_back(i);
  for (auto _ : state) {
    state.PauseTiming();
    Treap<std::uint64_t> t = Treap<std::uint64_t>::from_sorted(keys);
    state.ResumeTiming();
    auto lo = t.split_leq(100'000);
    benchmark::DoNotOptimize(lo.size());
  }
}
BENCHMARK(BM_TreapSplit);

}  // namespace

BENCHMARK_MAIN();
