// Parallel-primitive throughput: the building blocks every engine leans on
// (reduce, scan, WriteMin under contention).
#include <atomic>

#include <benchmark/benchmark.h>

#include "parallel/primitives.hpp"
#include "parallel/write_min.hpp"

namespace {

using namespace rs;

void BM_ParallelSum(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> v(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        parallel_sum<std::uint64_t>(0, n, [&](std::size_t i) { return v[i]; }));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelSum)->Arg(1 << 16)->Arg(1 << 22);

void BM_ExclusiveScan(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> in(n, 1);
  std::vector<std::uint64_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exclusive_scan(in, out));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExclusiveScan)->Arg(1 << 16)->Arg(1 << 22);

void BM_WriteMinContended(benchmark::State& state) {
  // All relaxations hammer a small window of cells — worst-case contention
  // for the CAS loop.
  const std::size_t cells = static_cast<std::size_t>(state.range(0));
  std::vector<std::atomic<std::uint64_t>> arr(cells);
  const std::size_t n = 1 << 20;
  for (auto _ : state) {
    state.PauseTiming();
    for (auto& a : arr) a.store(~std::uint64_t{0});
    state.ResumeTiming();
    parallel_for(0, n, [&](std::size_t i) {
      write_min(arr[i % cells], static_cast<std::uint64_t>(n - i));
    });
    benchmark::DoNotOptimize(arr[0].load());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WriteMinContended)->Arg(1)->Arg(64)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
