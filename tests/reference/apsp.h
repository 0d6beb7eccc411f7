// Test-only all-pairs shortest paths (repeated Dijkstra) with a dense
// distance matrix.
//
// Backs the exact oracles (reference/exact_steiner.h,
// reference/exact_offline.h) and the APSP rows of bench_micro_sp_engine;
// production code never needs all pairs. Memory is Theta(n^2) doubles plus
// the parent structure when path reconstruction is requested.
#pragma once

#include <vector>

#include "graph/dijkstra.h"
#include "graph/graph.h"

namespace nfvm::reference {

class AllPairsShortestPaths {
 public:
  /// Runs Dijkstra from every vertex. `keep_parents` retains the full
  /// per-source structures for path reconstruction (doubles the memory).
  /// Sources fan out across util::ThreadPool::global(); each source's tree
  /// lands in its own slot, so the result is identical for any thread count.
  explicit AllPairsShortestPaths(const graph::Graph& g, bool keep_parents = false);

  std::size_t num_vertices() const noexcept { return n_; }

  /// d(u, v); kInfiniteDistance when disconnected. Throws std::out_of_range.
  double distance(graph::VertexId u, graph::VertexId v) const;

  bool reachable(graph::VertexId u, graph::VertexId v) const {
    return distance(u, v) < graph::kInfiniteDistance;
  }

  /// Vertices of a shortest path u -> v (inclusive); empty if unreachable.
  /// Throws std::logic_error when constructed without keep_parents.
  std::vector<graph::VertexId> path(graph::VertexId u, graph::VertexId v) const;
  /// Edge ids of a shortest path u -> v in travel order.
  std::vector<graph::EdgeId> path_edges_between(graph::VertexId u,
                                                graph::VertexId v) const;
  /// The full shortest-path tree rooted at `u`. Throws std::logic_error
  /// when constructed without keep_parents.
  const graph::ShortestPaths& source_tree(graph::VertexId u) const;

  /// Largest finite distance (0 for an empty/edgeless graph). Infinite
  /// pairs are ignored; use `connected()` to detect them.
  double diameter() const;
  /// True iff all pairs are mutually reachable.
  bool connected() const;

 private:
  std::size_t n_;
  std::vector<double> dist_;  // row-major n x n
  std::vector<graph::ShortestPaths> per_source_;  // empty unless keep_parents

  void check(graph::VertexId v) const;
};

}  // namespace nfvm::reference
