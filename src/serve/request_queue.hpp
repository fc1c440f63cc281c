// Bounded MPMC queue: the admission buffer between client threads and the
// daemon's batcher threads (serve/server.hpp).
//
// The capacity bound IS the backpressure mechanism: try_push never blocks
// and never grows the buffer — when the ring is full the push fails and
// the server surfaces SubmitStatus::kQueueFull to the caller, which is the
// behavior a saturated daemon wants (shed load at the edge with a cheap
// status instead of queueing unboundedly and blowing the tail latency of
// everything behind it).
//
// Consumers get one call, pop_batch(): block until anything is buffered,
// then take everything buffered (up to a cap) under that one lock. That
// is the whole micro-batching rule — a batcher never waits for more work
// than is already there, and whatever arrives while its batch runs forms
// the next batch. close() wakes everyone; pop_batch drains whatever is
// still buffered before reporting closed, so shutdown never drops an
// accepted request.
//
// A mutex + condvar ring, not a lock-free queue, on purpose: the critical
// section is a handful of instructions, contention is bounded by the
// request rate (thousands/s, not millions/s — each item is a full SSSP
// query), and an idle batcher needs a blocking wait that a condvar gives
// for free. The ring storage is allocated once at construction; push and
// pop_batch move items in and out without allocating (given an `out`
// vector with room for the batch).
#pragma once

#include <algorithm>
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
  bool try_push(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || count_ == ring_.size()) return false;
      ring_[(head_ + count_) % ring_.size()] = std::move(item);
      ++count_;
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is buffered, then appends every buffered item
  /// to `out` in FIFO order — at most `max` (0 counts as 1), at least
  /// one. Returns false, appending nothing, only when the queue is closed
  /// and empty: buffered items always drain before closure is reported.
  /// One call hands over at most capacity() items.
  bool pop_batch(std::vector<T>& out, std::size_t max) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return count_ > 0 || closed_; });
    const std::size_t take = std::min(count_, std::max<std::size_t>(max, 1));
    for (std::size_t i = 0; i < take; ++i) {
      out.push_back(std::move(ring_[head_]));
      head_ = (head_ + 1) % ring_.size();
    }
    count_ -= take;
    return take > 0;
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
