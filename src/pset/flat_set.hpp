// Flat ordered set: a sorted vector with merge-based bulk operations.
//
// The contrast substrate to the join-based treap. Same interface, very
// different cost profile: split/union/difference are O(n) copies instead
// of O(p log q) pointer surgery — better constants on small sets (cache
// contiguity), asymptotically worse on large ones. Algorithm 2 runs
// unchanged on either (core/rs_bst.cpp is templated over the set), which
// demonstrates that the paper's analysis depends only on the ordered-set
// interface; gb_engines quantifies the crossover.
#pragma once

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace rs {

template <typename Key>
class FlatSet {
 public:
  FlatSet() = default;

  bool empty() const { return keys_.empty(); }
  std::size_t size() const { return keys_.size(); }

  bool contains(const Key& key) const {
    return std::binary_search(keys_.begin(), keys_.end(), key);
  }

  bool insert(const Key& key) {
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it != keys_.end() && !(key < *it)) return false;
    keys_.insert(it, key);
    return true;
  }

  bool erase(const Key& key) {
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it == keys_.end() || key < *it) return false;
    keys_.erase(it);
    return true;
  }

  const Key& min() const {
    assert(!empty());
    return keys_.front();
  }

  Key extract_min() {
    assert(!empty());
    Key out = keys_.front();
    keys_.erase(keys_.begin());
    return out;
  }

  /// Splits off and returns all keys <= pivot; this set keeps keys > pivot.
  FlatSet split_leq(const Key& pivot) {
    const auto it = std::upper_bound(keys_.begin(), keys_.end(), pivot);
    FlatSet out;
    out.keys_.assign(keys_.begin(), it);
    keys_.erase(keys_.begin(), it);
    return out;
  }

  /// Destructive union (other becomes empty). Linear merge.
  void union_with(FlatSet&& other) {
    if (other.empty()) return;
    if (empty()) {
      keys_ = std::move(other.keys_);
      return;
    }
    std::vector<Key> merged;
    merged.reserve(keys_.size() + other.keys_.size());
    std::set_union(keys_.begin(), keys_.end(), other.keys_.begin(),
                   other.keys_.end(), std::back_inserter(merged));
    keys_ = std::move(merged);
    other.keys_.clear();
  }

  /// Destructive difference (other becomes empty). Linear merge.
  void subtract(FlatSet&& other) {
    if (other.empty() || empty()) {
      other.keys_.clear();
      return;
    }
    std::vector<Key> out;
    out.reserve(keys_.size());
    std::set_difference(keys_.begin(), keys_.end(), other.keys_.begin(),
                        other.keys_.end(), std::back_inserter(out));
    keys_ = std::move(out);
    other.keys_.clear();
  }

  /// Builds from strictly-increasing sorted keys. O(n).
  static FlatSet from_sorted(std::vector<Key> sorted) {
    assert(std::is_sorted(sorted.begin(), sorted.end()));
    FlatSet out;
    out.keys_ = std::move(sorted);
    return out;
  }

  std::vector<Key> to_vector() const { return keys_; }

  /// Interface parity with Treap: replaces `out` with the sorted keys.
  void to_vector(std::vector<Key>& out) const {
    out.assign(keys_.begin(), keys_.end());
  }

 private:
  std::vector<Key> keys_;
};

}  // namespace rs
