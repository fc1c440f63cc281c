/// \file
/// Per-request trace spans: where did this request's latency go?
///
/// A TraceBuffer is a fixed-capacity, allocation-free array of spans that
/// rides inside QueryResponse. When tracing is on for a request, the
/// serving stack stamps one span per station of the request's life:
///
///   depth 0 (contiguous — they tile the end-to-end latency exactly):
///     admission    validate + cache consult + enqueue, on the client
///                  thread
///     queue_wait   enqueued -> popped by a worker
///     batch_form   popped -> engine call (the engine pin; the worker
///                  never waits for more work here)
///     engine       SsspEngine::serve for the request
///     respond      engine done -> promise fulfilled (cache publication,
///                  row reads, completion bookkeeping)
///   depth 1 (inside `engine`; duration-only — their start is the engine
///   span's start, and they need not tile it):
///     relax        relaxation substeps (Algorithm 1's inner loop)
///     partition    frontier drain + A_i/B_i partitioning
///   cache-hit requests replace queue_wait..respond with:
///     cache_hit    answered synchronously from a cached row at submit
///
/// Sampling: ServerOptions::trace_sample = N traces every Nth admitted
/// request (0 = off). `RS_TRACE` / `--trace-sample N` wire it up from the
/// environment/CLI. With tracing off the buffer's `enabled` flag is
/// false, every add() is a single predictable branch, and nothing else is
/// touched — the disabled path stays allocation-free and unmeasurable.
///
/// The buffer is POD (std::array storage, trivially copyable) so moving a
/// QueryResponse moves it by memcpy and the zero-allocation warm-path
/// guarantee (tests/test_alloc_free.cpp) is untouched.
#pragma once

#include <array>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace rs::obs {

/// Station identifiers — the span vocabulary of the serving stack.
/// docs/OPERATIONS.md keeps the operator-facing reference table.
enum class SpanId : std::uint8_t {
  kAdmission,  ///< submit(): validate + cache consult + enqueue.
  kQueueWait,  ///< BoundedQueue residence time.
  kBatchForm,  ///< Popped -> engine call.
  kEngine,     ///< SsspEngine::serve for the request.
  kRespond,    ///< Engine done -> promise fulfilled.
  kCacheHit,   ///< Synchronous cached answer at submit time.
  kRelax,      ///< Engine detail: relaxation substeps.
  kPartition,  ///< Engine detail: frontier drain + partition.
};

/// Stable lowercase token for a SpanId (the slow-query-log / JSON
/// spelling).
inline const char* to_string(SpanId id) {
  switch (id) {
    case SpanId::kAdmission:
      return "admission";
    case SpanId::kQueueWait:
      return "queue_wait";
    case SpanId::kBatchForm:
      return "batch_form";
    case SpanId::kEngine:
      return "engine";
    case SpanId::kRespond:
      return "respond";
    case SpanId::kCacheHit:
      return "cache_hit";
    case SpanId::kRelax:
      return "relax";
    case SpanId::kPartition:
      return "partition";
  }
  return "unknown";
}

/// One stamped span. start_ns is relative to the request's admission
/// (TraceBuffer::origin_ns), so spans are meaningful after the response
/// leaves the server.
struct TraceSpan {
  SpanId id = SpanId::kAdmission;
  std::uint8_t depth = 0;  ///< 0 = station, 1 = engine phase detail.
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
};

/// Fixed-capacity span log (see file comment). POD; ~400 bytes.
struct TraceBuffer {
  static constexpr std::size_t kCapacity = 16;

  bool enabled = false;
  std::uint8_t size = 0;
  std::uint64_t origin_ns = 0;  ///< steady-clock ns at admission.
  std::array<TraceSpan, kCapacity> spans{};

  /// Appends a span; silently drops past capacity (a truncated trace is
  /// better than an allocation or a crash on the hot path).
  void add(SpanId id, std::uint8_t depth, std::uint64_t start_ns,
           std::uint64_t duration_ns) noexcept {
    if (!enabled || size >= kCapacity) return;
    spans[size] = TraceSpan{id, depth, start_ns, duration_ns};
    ++size;
  }

  /// Sum of depth-0 span durations — the stations tile the request, so
  /// this equals the end-to-end latency (acceptance: within 10%).
  std::uint64_t station_total_ns() const noexcept {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < size; ++i) {
      if (spans[i].depth == 0) total += spans[i].duration_ns;
    }
    return total;
  }
};

/// Parses the RS_TRACE environment knob: unset/0 = off, N = trace every
/// Nth request. Mirrors the RS_THREADS convention (parse_worker_count):
/// garbage, trailing junk, a negative value or one above 2^32 - 1 warns
/// on stderr and gives 0 instead of wrapping.
inline std::uint32_t trace_sample_from_env() {
  const char* env = std::getenv("RS_TRACE");
  if (env == nullptr || *env == '\0') return 0;
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE || v < 0 || v > kMax) {
    std::fprintf(stderr,
                 "[rs] warning: RS_TRACE=\"%s\" is not a count in [0, %u]; "
                 "tracing stays off\n",
                 env, kMax);
    return 0;
  }
  return static_cast<std::uint32_t>(v);
}

}  // namespace rs::obs
