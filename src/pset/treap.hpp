// Join-based treap: the balanced-BST substrate Algorithm 2 charges its
// bookkeeping to.
//
// The paper assumes ordered sets supporting split, union, and difference in
// O(p log q) work and O(log q) depth (Section 2, citing join-based parallel
// BSTs). This treap provides exactly that interface: all operations are
// expressed through split/join, priorities are a hash of the key (so a key
// set has one canonical shape, independent of insertion order — handy for
// determinism tests), and bulk union/difference recurse in parallel via
// OpenMP tasks on large inputs.
//
// Union and difference are destructive (they consume both operands), which
// matches how Algorithm 2 uses them: batches are built, merged into Q/R,
// and never reused. Each node is its own heap allocation.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "parallel/rng.hpp"

namespace rs {

namespace treap_detail {

/// Mixes arbitrary key bytes into a treap priority.
template <typename Key>
std::uint64_t priority_of(const Key& key) {
  if constexpr (std::is_integral_v<Key>) {
    return hash64(static_cast<std::uint64_t>(key));
  } else {
    // Pair-like keys (first, second) — the shapes used in this library.
    return hash64(hash64(static_cast<std::uint64_t>(key.first)) ^
                  static_cast<std::uint64_t>(key.second));
  }
}

constexpr std::size_t kParallelCutoff = 4096;

template <typename Key>
struct Node {
  explicit Node(const Key& k) : key(k), prio(priority_of(k)) {}
  Key key{};
  std::uint64_t prio = 0;
  Node* left = nullptr;
  Node* right = nullptr;
  std::size_t size = 1;
};

}  // namespace treap_detail

/// Ordered set of unique keys with join-based split/union/difference.
template <typename Key>
class Treap {
 public:
  Treap() = default;
  ~Treap() { destroy(root_); }

  Treap(Treap&& other) noexcept : root_(std::exchange(other.root_, nullptr)) {}
  Treap& operator=(Treap&& other) noexcept {
    if (this != &other) {
      destroy(root_);
      root_ = std::exchange(other.root_, nullptr);
    }
    return *this;
  }
  Treap(const Treap&) = delete;
  Treap& operator=(const Treap&) = delete;

  bool empty() const { return root_ == nullptr; }
  std::size_t size() const { return size_of(root_); }

  bool contains(const Key& key) const {
    const Node* cur = root_;
    while (cur != nullptr) {
      if (key < cur->key) {
        cur = cur->left;
      } else if (cur->key < key) {
        cur = cur->right;
      } else {
        return true;
      }
    }
    return false;
  }

  /// Inserts `key`; returns false if already present.
  bool insert(const Key& key) {
    if (contains(key)) return false;
    auto [lo, hi] = split_raw(root_, key);
    Node* mid = new Node(key);
    root_ = join(join(lo, mid), hi);
    return true;
  }

  /// Removes `key`; returns false if absent.
  bool erase(const Key& key) {
    bool removed = false;
    root_ = erase_rec(root_, key, removed);
    return removed;
  }

  /// Smallest key. Pre: !empty().
  const Key& min() const {
    assert(!empty());
    const Node* cur = root_;
    while (cur->left != nullptr) cur = cur->left;
    return cur->key;
  }

  /// Removes and returns the smallest key. Pre: !empty().
  Key extract_min() {
    Key out = min();
    erase(out);
    return out;
  }

  /// Splits off and returns all keys <= pivot; this treap keeps keys > pivot.
  /// O(log n).
  Treap split_leq(const Key& pivot) {
    auto [lo, hi] = split_raw(root_, pivot, /*leq=*/true);
    root_ = hi;
    Treap out;
    out.root_ = lo;
    return out;
  }

  /// Destructive union: this := this U other, other becomes empty.
  /// O(p log(q/p + 1)) work, polylog depth (parallel tasks on large
  /// inputs).
  void union_with(Treap&& other) {
    Node* b = std::exchange(other.root_, nullptr);
    if (size_of(root_) + size_of(b) >= treap_detail::kParallelCutoff) {
#pragma omp parallel
#pragma omp single
      root_ = union_rec(root_, b);
    } else {
      root_ = union_rec(root_, b);
    }
  }

  /// Destructive difference: this := this \ other, other becomes empty.
  void subtract(Treap&& other) {
    Node* b = std::exchange(other.root_, nullptr);
    if (size_of(root_) + size_of(b) >= treap_detail::kParallelCutoff) {
#pragma omp parallel
#pragma omp single
      root_ = diff_rec(root_, b);
    } else {
      root_ = diff_rec(root_, b);
    }
    destroy(b);  // diff_rec leaves `b`'s skeleton; reclaim it
  }

  /// Builds from strictly-increasing sorted keys in O(n) work, O(log n)
  /// depth.
  static Treap from_sorted(const std::vector<Key>& sorted) {
    Treap t;
    if (sorted.size() >= treap_detail::kParallelCutoff) {
#pragma omp parallel
#pragma omp single
      t.root_ = build_rec(sorted, 0, sorted.size());
    } else {
      t.root_ = build_rec(sorted, 0, sorted.size());
    }
    return t;
  }

  /// In-order (sorted) key dump.
  std::vector<Key> to_vector() const {
    std::vector<Key> out;
    out.reserve(size());
    append_inorder(root_, out);
    return out;
  }

  /// Allocation-free variant: clears `out` and appends in order, keeping
  /// the vector's capacity (the hot-path form).
  void to_vector(std::vector<Key>& out) const {
    out.clear();
    append_inorder(root_, out);
  }

  /// Maximum node depth; exposed so tests can check balance (O(log n) w.h.p).
  std::size_t height() const { return height_rec(root_); }

 private:
  using Node = treap_detail::Node<Key>;

  static std::size_t size_of(const Node* t) { return t ? t->size : 0; }

  static void update(Node* t) {
    t->size = 1 + size_of(t->left) + size_of(t->right);
  }

  static void destroy(Node* t) {
    if (t == nullptr) return;
    destroy(t->left);
    destroy(t->right);
    delete t;
  }

  /// Joins two treaps where all keys in `lo` < all keys in `hi`.
  static Node* join(Node* lo, Node* hi) {
    if (lo == nullptr) return hi;
    if (hi == nullptr) return lo;
    if (lo->prio > hi->prio) {
      lo->right = join(lo->right, hi);
      update(lo);
      return lo;
    }
    hi->left = join(lo, hi->left);
    update(hi);
    return hi;
  }

  /// Splits by pivot. With leq=true the left part receives keys == pivot.
  static std::pair<Node*, Node*> split_raw(Node* t, const Key& pivot,
                                           bool leq = false) {
    if (t == nullptr) return {nullptr, nullptr};
    const bool go_left = leq ? (pivot < t->key) : !(t->key < pivot);
    if (go_left) {
      auto [lo, hi] = split_raw(t->left, pivot, leq);
      t->left = hi;
      update(t);
      return {lo, t};
    }
    auto [lo, hi] = split_raw(t->right, pivot, leq);
    t->right = lo;
    update(t);
    return {t, hi};
  }

  static Node* erase_rec(Node* t, const Key& key, bool& removed) {
    if (t == nullptr) return nullptr;
    if (key < t->key) {
      t->left = erase_rec(t->left, key, removed);
    } else if (t->key < key) {
      t->right = erase_rec(t->right, key, removed);
    } else {
      Node* merged = join(t->left, t->right);
      delete t;
      removed = true;
      return merged;
    }
    update(t);
    return t;
  }

  static Node* union_rec(Node* a, Node* b) {
    if (a == nullptr) return b;
    if (b == nullptr) return a;
    if (a->prio < b->prio) std::swap(a, b);
    // a's root wins; partition b around it. split_raw puts keys >= pivot on
    // the right, so a duplicate of a->key (if b held one) is hi's minimum.
    auto [lo, hi] = split_raw(b, a->key);
    {
      bool removed = false;
      hi = erase_rec(hi, a->key, removed);
    }
    Node* left = nullptr;
    Node* right = nullptr;
    const bool parallel =
        size_of(a) + size_of(lo) + size_of(hi) >= treap_detail::kParallelCutoff;
    if (parallel) {
#pragma omp task shared(left)
      left = union_rec(a->left, lo);
      right = union_rec(a->right, hi);
#pragma omp taskwait
    } else {
      left = union_rec(a->left, lo);
      right = union_rec(a->right, hi);
    }
    a->left = left;
    a->right = right;
    update(a);
    return a;
  }

  /// a \ b, built from a's nodes. `b` is only read; the caller reclaims it.
  static Node* diff_rec(Node* a, const Node* b) {
    if (a == nullptr || b == nullptr) return a;
    // Partition a around b's root key; the match (if present) is the
    // minimum of the >=-side. Remove it.
    auto [lo, hi] = split_raw(a, b->key);
    {
      bool removed = false;
      hi = erase_rec(hi, b->key, removed);
    }
    Node* left = nullptr;
    Node* right = nullptr;
    const bool parallel =
        size_of(lo) + size_of(hi) + size_of(b) >= treap_detail::kParallelCutoff;
    if (parallel) {
#pragma omp task shared(left)
      left = diff_rec(lo, b->left);
      right = diff_rec(hi, b->right);
#pragma omp taskwait
    } else {
      left = diff_rec(lo, b->left);
      right = diff_rec(hi, b->right);
    }
    return join(left, right);
  }

  static Node* build_rec(const std::vector<Key>& sorted, std::size_t lo,
                         std::size_t hi) {
    if (lo >= hi) return nullptr;
    // Root = max priority in range; recursing on the midpoint instead would
    // break the heap property, so find the max-priority element. For O(n)
    // total work we use the standard trick: build by divide-and-conquer on
    // position, then fix the heap property with joins.
    const std::size_t mid = lo + (hi - lo) / 2;
    Node* root = new Node(sorted[mid]);
    Node* left = nullptr;
    Node* right = nullptr;
    if (hi - lo >= treap_detail::kParallelCutoff) {
#pragma omp task shared(left, sorted)
      left = build_rec(sorted, lo, mid);
      right = build_rec(sorted, mid + 1, hi);
#pragma omp taskwait
    } else {
      left = build_rec(sorted, lo, mid);
      right = build_rec(sorted, mid + 1, hi);
    }
    // Rebalance to restore the priority heap order.
    return join(join_heapify(left, root), right);
  }

  /// Joins `left` (all keys < root->key) with the single node `root`,
  /// restoring the treap priority invariant.
  static Node* join_heapify(Node* left, Node* root) {
    root->left = nullptr;
    root->right = nullptr;
    root->size = 1;
    return join(left, root);
  }

  static void append_inorder(const Node* t, std::vector<Key>& out) {
    if (t == nullptr) return;
    append_inorder(t->left, out);
    out.push_back(t->key);
    append_inorder(t->right, out);
  }

  static std::size_t height_rec(const Node* t) {
    if (t == nullptr) return 0;
    return 1 + std::max(height_rec(t->left), height_rec(t->right));
  }

  Node* root_ = nullptr;
};

}  // namespace rs
