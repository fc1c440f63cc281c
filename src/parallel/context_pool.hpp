// Per-worker object pool for batch schedulers.
//
// A WorkerPool hands each OpenMP worker its own slot (a QueryContext, a
// scratch struct, ...) so a source-parallel batch runs with zero sharing
// and zero per-query allocation once the slots are warm. Slots live in a
// deque: growth never moves existing elements, so references handed out by
// at() stay valid across ensure() calls.
//
// Concurrency contract: ensure() is called from one thread before the
// parallel region; inside the region each worker touches only at(its own
// id). The pool itself performs no locking: it serves one batch at a time,
// so each concurrent caller owns its own (SsspEngine::serve_batch takes
// the caller's).
#pragma once

#include <cstddef>
#include <deque>

namespace rs {

template <typename T>
class WorkerPool {
 public:
  /// Grows the pool to at least `workers` slots (default-constructed in
  /// place). Never shrinks: a pool stays warm at its high-water mark.
  void ensure(std::size_t workers) {
    while (slots_.size() < workers) slots_.emplace_back();
  }

  /// Slot for `worker`; must be < size(). Stable address for the lifetime
  /// of the pool.
  T& at(std::size_t worker) { return slots_[worker]; }

  std::size_t size() const { return slots_.size(); }

 private:
  std::deque<T> slots_;
};

}  // namespace rs
