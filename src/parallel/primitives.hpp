// Parallel primitives used throughout the library.
//
// All primitives are OpenMP-backed and degrade gracefully to sequential
// execution when OpenMP runs with one thread. Grain sizes keep per-task
// work large enough that scheduling overhead never dominates; callers can
// tune them but the defaults are sensible for the graph sizes in this repo.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <omp.h>

namespace rs {

/// Returns the number of worker threads the parallel primitives will use
/// (every region they open is capped at this count, whatever the OpenMP
/// default). Inside any OpenMP region it is 1, even a one-thread one: the
/// caller is one worker of a team (a server worker runs its loop in a
/// region of its own), so the primitives and engines run inline there.
int num_workers();

/// Sets the number of worker threads (clamped to >= 1). Affects all
/// subsequent parallel primitives. Thread-safe with respect to itself.
void set_num_workers(int n);

/// Upper bound accepted for RS_THREADS — far above any sane machine, but
/// finite so overflowed or absurd values are rejected, not clamped.
inline constexpr int kMaxWorkers = 8192;

/// Parses an RS_THREADS-style worker-count value. Unset/empty returns
/// `fallback` silently; garbage, trailing junk, non-positive values, and
/// anything outside [1, kMaxWorkers] (including integer overflow) returns
/// `fallback` with a warning on stderr. Exposed for tests.
int parse_worker_count(const char* value, int fallback);

/// Reads an integer environment variable, returning `fallback` when unset
/// or unparsable. Used by benches for RS_SOURCES / RS_THREADS overrides.
std::int64_t env_int64(const char* name, std::int64_t fallback);

/// Reads a string environment variable, returning `fallback` when unset.
std::string env_string(const char* name, const std::string& fallback);

namespace detail {
constexpr std::size_t kDefaultGrain = 1024;
}  // namespace detail

/// Applies `f(i)` for all i in [begin, end) in parallel.
template <typename F>
void parallel_for(std::size_t begin, std::size_t end, F&& f,
                  std::size_t grain = detail::kDefaultGrain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const int nw = num_workers();
  if (n <= grain || nw == 1) {
    for (std::size_t i = begin; i < end; ++i) f(i);
    return;
  }
#pragma omp parallel for schedule(dynamic, 64) num_threads(nw)
  for (std::int64_t i = static_cast<std::int64_t>(begin);
       i < static_cast<std::int64_t>(end); ++i) {
    f(static_cast<std::size_t>(i));
  }
}

/// parallel_for over one contiguous block of [begin, end) per worker. Use it
/// when neighbouring indices update the same cells (arcs grouped by source
/// bumping a per-source counter): dynamic chunks would hand neighbours to
/// different workers and bounce those cells between cores.
template <typename F>
void parallel_for_blocked(std::size_t begin, std::size_t end, F&& f) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const int nw = num_workers();
  if (n <= detail::kDefaultGrain || nw == 1) {
    for (std::size_t i = begin; i < end; ++i) f(i);
    return;
  }
#pragma omp parallel for schedule(static) num_threads(nw)
  for (std::int64_t i = static_cast<std::int64_t>(begin);
       i < static_cast<std::int64_t>(end); ++i) {
    f(static_cast<std::size_t>(i));
  }
}

/// Parallel reduction of `f(i)` over [begin, end) with combiner `combine`
/// and identity `id`. `combine` must be associative and commutative.
template <typename T, typename F, typename Combine>
T parallel_reduce(std::size_t begin, std::size_t end, T id, F&& f,
                  Combine&& combine,
                  std::size_t grain = detail::kDefaultGrain) {
  if (begin >= end) return id;
  const std::size_t n = end - begin;
  if (n <= grain || num_workers() == 1) {
    T acc = id;
    for (std::size_t i = begin; i < end; ++i) acc = combine(acc, f(i));
    return acc;
  }
  const int nw = num_workers();
  std::vector<T> partial(static_cast<std::size_t>(nw), id);
#pragma omp parallel num_threads(nw)
  {
    const int tid = omp_get_thread_num();
    T acc = id;
#pragma omp for schedule(static) nowait
    for (std::int64_t i = static_cast<std::int64_t>(begin);
         i < static_cast<std::int64_t>(end); ++i) {
      acc = combine(acc, f(static_cast<std::size_t>(i)));
    }
    partial[static_cast<std::size_t>(tid)] = acc;
  }
  T acc = id;
  for (const T& p : partial) acc = combine(acc, p);
  return acc;
}

/// Parallel sum-reduction of f(i) over [begin, end).
template <typename T, typename F>
T parallel_sum(std::size_t begin, std::size_t end, F&& f) {
  return parallel_reduce(begin, end, T{}, std::forward<F>(f),
                         [](const T& a, const T& b) { return a + b; });
}

/// Exclusive prefix sum of `in`; returns the total. `out` may alias `in`.
/// out[i] = in[0] + ... + in[i-1].
template <typename T>
T exclusive_scan(const std::vector<T>& in, std::vector<T>& out) {
  const std::size_t n = in.size();
  out.resize(n);
  const int nw = num_workers();
  if (n < 4 * detail::kDefaultGrain || nw == 1) {
    T acc{};
    for (std::size_t i = 0; i < n; ++i) {
      T v = in[i];
      out[i] = acc;
      acc += v;
    }
    return acc;
  }
  const std::size_t nblocks = static_cast<std::size_t>(nw);
  const std::size_t block = (n + nblocks - 1) / nblocks;
  std::vector<T> block_sum(nblocks, T{});
#pragma omp parallel for schedule(static, 1) num_threads(nw)
  for (std::int64_t b = 0; b < static_cast<std::int64_t>(nblocks); ++b) {
    const std::size_t lo = static_cast<std::size_t>(b) * block;
    const std::size_t hi = std::min(n, lo + block);
    T acc{};
    for (std::size_t i = lo; i < hi; ++i) acc += in[i];
    block_sum[static_cast<std::size_t>(b)] = acc;
  }
  std::vector<T> block_off(nblocks, T{});
  T total{};
  for (std::size_t b = 0; b < nblocks; ++b) {
    block_off[b] = total;
    total += block_sum[b];
  }
#pragma omp parallel for schedule(static, 1) num_threads(nw)
  for (std::int64_t b = 0; b < static_cast<std::int64_t>(nblocks); ++b) {
    const std::size_t lo = static_cast<std::size_t>(b) * block;
    const std::size_t hi = std::min(n, lo + block);
    T acc = block_off[static_cast<std::size_t>(b)];
    for (std::size_t i = lo; i < hi; ++i) {
      T v = in[i];
      out[i] = acc;
      acc += v;
    }
  }
  return total;
}

}  // namespace rs
