// Truncated Dijkstra "ball search": finds the rho-nearest neighbourhood of
// a vertex, the building block of all preprocessing (Lemma 4.2).
//
// Two details follow the paper exactly:
//  * only the lightest `edge_limit` (default rho) arcs of each visited
//    vertex are considered;
//  * the search continues through ties: it settles *every* vertex at
//    distance r_rho, not exactly rho of them (Section 5.1), which makes the
//    result deterministic and slightly pessimistic.
//
// Precondition: `g` has weight-sorted adjacency
// (Graph::with_weight_sorted_adjacency), whatever the edge limit — the
// bounded scan below relies on it.
//
// Bounded scan. The search keeps B, an upper bound on r_rho: the largest
// of the rho smallest first-touch distances (the source's 0 included).
// Those rho distinct vertices each lie within their first-touch distance,
// so at least rho vertices lie within B; once r_rho is fixed, B = r_rho.
// A relaxation with d(u) + w > B cannot give any ball member its key
// (members have dist <= r_rho <= B), so it is skipped, and so is the rest
// of u's scan: later arcs are at least as heavy.
//
// Tiebreak. The heap orders by (dist, hops, vertex id), so pop order,
// parents and ball order depend only on the graph, not on which
// relaxations were skipped: the bounded search returns exactly the ball
// an unbounded one would.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "pq/binary_heap.hpp"

namespace rs {

struct BallVertex {
  Vertex v = kNoVertex;
  Dist dist = 0;
  Vertex hops = 0;          // hop length of the min-hop shortest path
  Vertex parent = kNoVertex;  // predecessor on that path (in-ball)
};

struct Ball {
  Vertex source = kNoVertex;
  /// Settled vertices in increasing (dist, hops, vertex) order; entry 0 is
  /// the source itself.
  std::vector<BallVertex> vertices;
  /// r_rho(source): distance of the rho-th closest vertex (counting the
  /// source as the first). 0 when rho <= 1.
  Dist radius = 0;
  /// Arcs examined — the paper's O(rho^2) work term (Figure 2 probes this).
  EdgeId arcs_scanned = 0;
};

struct BallOptions {
  Vertex rho = 1;
  /// Arcs considered per vertex (0 = use rho) — the lightest-rho-edges
  /// restriction of Lemma 4.2.
  Vertex edge_limit = 0;
  /// true  = settle the whole distance class of the rho-th vertex
  ///         (the paper's §5.1 protocol; deterministic, pessimistic);
  /// false = stop at exactly rho settled vertices (the paper's footnote
  ///         variant; same radii, same experimental conclusions, and much
  ///         cheaper on unweighted hub graphs where tie classes are huge).
  /// The reported `radius` is identical either way.
  bool settle_ties = true;
};

/// Reusable per-thread state so that n parallel ball searches don't pay an
/// O(n) reset each. All arrays are lazily stamped; capacity only grows, so
/// one workspace serves graphs of different sizes back to back (stale
/// stamps from a larger graph can never alias — the epoch is monotone).
class BallSearchWorkspace {
 public:
  BallSearchWorkspace() = default;
  explicit BallSearchWorkspace(Vertex n) { reserve(n); }

  /// Grows every per-vertex array to cover `n` vertices; never shrinks.
  void reserve(Vertex n);

  /// Largest vertex count the workspace is warmed up for.
  Vertex capacity() const { return static_cast<Vertex>(stamp_.size()); }

  /// Computes the rho-ball of `source` into `out`, reusing its capacity —
  /// a warm workspace + ball pair performs zero heap allocations. `g` must
  /// have weight-sorted adjacency.
  void run(const Graph& g, Vertex source, const BallOptions& opts, Ball& out);

  /// Value-returning form (allocates the ball's vertex list).
  Ball run(const Graph& g, Vertex source, const BallOptions& opts) {
    Ball ball;
    run(g, source, opts, ball);
    return ball;
  }

  /// Convenience overload with default options.
  Ball run(const Graph& g, Vertex source, Vertex rho, Vertex edge_limit = 0) {
    return run(g, source, BallOptions{rho, edge_limit, true});
  }

 private:
  struct Key {
    Dist d;
    Vertex h;
    Vertex v;  // tiebreak: makes the order total
    bool operator<(const Key& o) const {
      if (d != o.d) return d < o.d;
      return h != o.h ? h < o.h : v < o.v;
    }
    bool operator<=(const Key& o) const { return !(o < *this); }
    bool operator>=(const Key& o) const { return !(*this < o); }
  };

  bool fresh(Vertex v) const { return stamp_[v] != epoch_; }

  std::vector<Vertex> parent_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  IndexedHeap<Key> heap_{0};
  /// Max-heap of the rho smallest first-touch distances; its top is B
  /// once it holds rho entries. Keeps its capacity across runs.
  std::vector<Dist> bound_;
};

/// One-shot convenience wrapper (allocates a workspace internally).
Ball ball_search(const Graph& g, Vertex source, Vertex rho,
                 Vertex edge_limit = 0);

/// rho-nearest radii r(v) = r_rho(v) for all vertices, in parallel.
/// `g` need not be weight-sorted (a sorted copy is made internally).
std::vector<Dist> all_radii(const Graph& g, Vertex rho);

/// Checks Theorem 3.3's precondition |B(v, radius[v])| >= rho for every
/// vertex (by bounded Dijkstra, unrestricted edges). Users supplying custom
/// radii can verify the step bound applies; r_rho radii always pass.
bool radii_enclose_rho(const Graph& g, const std::vector<Dist>& radius,
                       Vertex rho);

}  // namespace rs
