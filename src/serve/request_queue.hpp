// Bounded MPMC queue: the admission buffer between client threads and the
// daemon's worker threads (serve/server.hpp).
//
// The capacity bound IS the backpressure mechanism: try_push never blocks
// and never grows the buffer — when the ring is full the push fails and
// the server surfaces SubmitStatus::kQueueFull to the caller, which is the
// behavior a saturated daemon wants (shed load at the edge with a cheap
// status instead of queueing unboundedly and blowing the tail latency of
// everything behind it).
//
// Consumers get one call, pop(): block until anything is buffered, then
// take the oldest item. close() wakes everyone; pop drains whatever is
// still buffered before reporting closed, so shutdown never drops an
// accepted request.
//
// A mutex + condvar ring, not a lock-free queue, on purpose: the critical
// section is a handful of instructions, contention is bounded by the
// request rate (thousands/s, not millions/s — each item is a full SSSP
// query), and an idle worker needs a blocking wait that a condvar gives
// for free. The ring storage is allocated once at construction; push and
// pop move items in and out without allocating.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace rs::serve {

template <typename T>
class BoundedQueue {
 public:
  /// Capacity is fixed for the queue's lifetime (minimum 1).
  explicit BoundedQueue(std::size_t capacity)
      : ring_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Admits `item` unless the queue is full or closed. Never blocks.
  bool try_push(T&& item) { return try_push(std::move(item), [] {}); }

  /// try_push that runs `on_admit()` once the item is in, under the
  /// queue's lock, so before any consumer can pop it: whatever the
  /// callback counts happens before the item's consumer runs.
  template <typename OnAdmit>
  bool try_push(T&& item, OnAdmit&& on_admit) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || count_ == ring_.size()) return false;
      ring_[(head_ + count_) % ring_.size()] = std::move(item);
      ++count_;
      on_admit();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is buffered, then moves the oldest into `out`.
  /// Returns false, leaving `out` untouched, only when the queue is
  /// closed and empty: buffered items always drain before closure is
  /// reported.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return count_ > 0 || closed_; });
    if (count_ == 0) return false;
    out = std::move(ring_[head_]);
    head_ = (head_ + 1) % ring_.size();
    --count_;
    return true;
  }

  /// Rejects all future pushes and wakes every blocked pop. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

  std::size_t capacity() const { return ring_.size(); }

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::vector<T> ring_;
  std::size_t head_ = 0;   // index of the oldest item
  std::size_t count_ = 0;  // number of buffered items
  bool closed_ = false;
};

}  // namespace rs::serve
