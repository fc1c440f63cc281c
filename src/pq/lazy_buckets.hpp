// Lazy bucket queue over integer bucket indices, in the style of Julienne
// (the bucketing layer of GBBS; Dhulipala, Blelloch and Shun).
//
// kOpen open buckets [base, base + kOpen) live in a ring of slot lists;
// an entry filed further ahead waits in one overflow list, tagged with its
// bucket, and moves into its slot once the ring covers it. Entries are
// never removed on decrease-key: the caller files the vertex again under
// its lower bucket and decides, whenever it reads a bucket, which entries
// are stale. Nothing is sized by the key range, so weights of any size
// need no pass over the graph, and a warm queue re-serves queries out of
// the capacity it already has. Both the Delta-stepping baseline and the
// radius-stepping frontier (one queue per worker) run on it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "graph/types.hpp"

namespace rs {

class LazyBuckets {
 public:
  /// Buckets held in the ring at once.
  static constexpr std::uint64_t kOpen = 64;
  /// next()'s answer when no entry is left.
  static constexpr std::uint64_t kNone =
      std::numeric_limits<std::uint64_t>::max();

  /// Empties every bucket (capacities kept) and opens [0, kOpen).
  void reset() {
    for (std::vector<Vertex>& slot : slots_) slot.clear();
    overflow_.clear();
    base_ = 0;
    overflow_min_ = kNone;
    size_ = 0;
    read_ = 0;
  }

  /// Lowest open bucket; every entry lies in a bucket >= base().
  std::uint64_t base() const { return base_; }
  bool empty() const { return size_ == 0; }
  /// Entries read by filter(), filter_overflow() and the overflow moves
  /// next() makes since the last reset().
  std::size_t entries_read() const { return read_; }

  /// Files `v` under bucket `b` >= base().
  void push(Vertex v, std::uint64_t b) {
    ++size_;
    if (b - base_ < kOpen) {
      slots_[b % kOpen].push_back(v);
    } else {
      overflow_.emplace_back(b, v);
      overflow_min_ = std::min(overflow_min_, b);
    }
  }

  /// The lowest bucket >= b (b >= base()) that holds an entry: an open
  /// bucket, whose entries are then all in its slot (overflow entries the
  /// ring has come to cover move in as the search passes them), or, when
  /// no open bucket from b on holds one, the overflow's lowest bucket
  /// (>= base() + kOpen; read it with filter_overflow). kNone when empty.
  std::uint64_t next(std::uint64_t b) {
    for (; b - base_ < kOpen; ++b) {
      if (b >= overflow_min_) open_overflow();
      if (!slots_[b % kOpen].empty()) return b;
    }
    return overflow_.empty() ? kNone : overflow_min_;
  }

  /// Calls keep(v) on every entry of open bucket `b` (as returned by
  /// next()) and drops those it returns false for.
  template <typename Keep>
  void filter(std::uint64_t b, Keep&& keep) {
    std::vector<Vertex>& slot = slots_[b % kOpen];
    read_ += slot.size();
    const std::size_t kept = compact(slot, keep);
    size_ -= slot.size() - kept;
    slot.resize(kept);
  }

  /// Calls keep(v, bucket) on every overflow entry and drops those it
  /// returns false for.
  template <typename Keep>
  void filter_overflow(Keep&& keep) {
    read_ += overflow_.size();
    std::uint64_t low = kNone;
    const std::size_t kept =
        compact(overflow_, [&](const std::pair<std::uint64_t, Vertex>& e) {
          if (!keep(e.second, e.first)) return false;
          low = std::min(low, e.first);
          return true;
        });
    size_ -= overflow_.size() - kept;
    overflow_.resize(kept);
    overflow_min_ = low;
  }

  /// Moves the ring to open [b, b + kOpen). Every bucket below b must be
  /// empty.
  void advance(std::uint64_t b) { base_ = b; }

 private:
  /// Moves every overflow entry the ring now covers into its slot.
  void open_overflow() {
    read_ += overflow_.size();
    std::uint64_t low = kNone;
    const std::size_t kept =
        compact(overflow_, [&](const std::pair<std::uint64_t, Vertex>& e) {
          if (e.first - base_ < kOpen) {
            slots_[e.first % kOpen].push_back(e.second);
            return false;
          }
          low = std::min(low, e.first);
          return true;
        });
    overflow_.resize(kept);
    overflow_min_ = low;
  }

  /// Stable in-place compaction of `list` to the elements `keep` accepts;
  /// returns how many there are (the caller shrinks the list).
  template <typename T, typename Keep>
  static std::size_t compact(std::vector<T>& list, Keep&& keep) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (keep(list[i])) list[out++] = list[i];
    }
    return out;
  }

  std::array<std::vector<Vertex>, kOpen> slots_;
  std::vector<std::pair<std::uint64_t, Vertex>> overflow_;
  std::uint64_t base_ = 0;
  std::uint64_t overflow_min_ = kNone;
  std::size_t size_ = 0;  // entries in slots and overflow
  std::size_t read_ = 0;
};

}  // namespace rs
