// Atomic priority-write (WriteMin), the PRAM primitive Radius-Stepping's
// substeps are built on: concurrent relaxations of the same vertex combine
// to the minimum, making the result independent of scheduling order.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

namespace rs {

/// Atomically performs `cell = min(cell, value)`.
/// Returns true iff this call strictly lowered the stored value.
template <typename T>
bool write_min(std::atomic<T>& cell, T value) {
  static_assert(std::is_integral_v<T>, "write_min needs an integral type");
  T cur = cell.load(std::memory_order_relaxed);
  while (value < cur) {
    if (cell.compare_exchange_weak(cur, value, std::memory_order_relaxed,
                                   std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

/// Same, additionally reporting the value the cell held immediately before
/// this call's successful lowering in `before` (unspecified when returning
/// false). Exactly one concurrent caller observes any given prior value:
/// the CAS that replaces it. This is what makes exactly-once first-touch
/// detection free — the winner of the kInfDist -> finite transition is the
/// unique caller that sees `before == kInfDist`.
template <typename T>
bool write_min(std::atomic<T>& cell, T value, T& before) {
  static_assert(std::is_integral_v<T>, "write_min needs an integral type");
  T cur = cell.load(std::memory_order_relaxed);
  while (value < cur) {
    if (cell.compare_exchange_weak(cur, value, std::memory_order_relaxed,
                                   std::memory_order_relaxed)) {
      before = cur;
      return true;
    }
  }
  return false;
}

/// Atomically performs `cell = max(cell, value)`; true iff it raised it.
template <typename T>
bool write_max(std::atomic<T>& cell, T value) {
  static_assert(std::is_integral_v<T>, "write_max needs an integral type");
  T cur = cell.load(std::memory_order_relaxed);
  while (value > cur) {
    if (cell.compare_exchange_weak(cur, value, std::memory_order_relaxed,
                                   std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

}  // namespace rs
