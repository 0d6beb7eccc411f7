// Rooted tree view over a set of graph edges, with binary-lifting LCA.
//
// Online_CP (Algorithm 2, step 10) roots the Steiner tree at the request
// source and computes the lowest common ancestor of the processing server and
// all destinations to derive the backhaul detour of the pseudo-multicast
// tree. This class provides that machinery plus tree paths and weights.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"

namespace nfvm::graph {

class RootedTree {
 public:
  /// Builds the rooted view of the tree formed by `tree_edges` (ids into
  /// `g`), rooted at `root`. The edges must form a forest; vertices outside
  /// the root's tree are marked absent. Throws std::invalid_argument if
  /// `tree_edges` contains a cycle, std::out_of_range for a bad root.
  RootedTree(const Graph& g, std::span<const EdgeId> tree_edges, VertexId root);

  /// Same rooted view over an *implicit* graph given as edge records (e.g.
  /// the Appro_Multi auxiliary-graph overlay): `num_vertices` bounds the
  /// vertex ids and `tree_edges` supplies endpoints and weights directly.
  /// Identical semantics and exceptions to the Graph overload.
  RootedTree(std::size_t num_vertices, std::span<const EdgeRecord> tree_edges,
             VertexId root);

  VertexId root() const noexcept { return root_; }

  /// True iff `v` belongs to the root's tree.
  bool contains(VertexId v) const;

  /// Lowest common ancestor of two vertices in the root's tree.
  VertexId lca(VertexId a, VertexId b) const;
  /// Iterated LCA over a non-empty vertex list:
  /// LCA(x1,...,xn) = LCA(LCA(x1,...,x(n-1)), xn). Throws on empty input.
  VertexId lca(std::span<const VertexId> vertices) const;

  /// Vertices of the unique tree path a -> b (inclusive, in travel order).
  std::vector<VertexId> path_vertices(VertexId a, VertexId b) const;
  /// Edges of the unique tree path a -> b in travel order.
  std::vector<EdgeId> path_edges(VertexId a, VertexId b) const;
  /// Sum of edge weights on the path a -> b.
  double path_weight(VertexId a, VertexId b) const;

  /// All vertices of the root's tree in BFS order from the root.
  const std::vector<VertexId>& vertices() const noexcept { return order_; }

 private:
  VertexId root_;
  std::vector<VertexId> parent_;
  std::vector<EdgeId> parent_edge_;
  std::vector<std::size_t> depth_;
  std::vector<double> dist_;
  std::vector<bool> present_;
  std::vector<VertexId> order_;
  /// Binary-lifting table, flattened to one allocation: the 2^k-th
  /// ancestor of v is up_[k * n + v] (kInvalidVertex beyond the root),
  /// where n = present_.size() and k < levels_.
  std::vector<VertexId> up_;
  std::size_t levels_ = 0;

  /// Shared constructor body: BFS orientation + binary-lifting tables.
  void init(std::size_t num_vertices, std::span<const EdgeRecord> tree_edges,
            VertexId root);
  void check_present(VertexId v) const;
};

}  // namespace nfvm::graph
