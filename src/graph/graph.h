// Undirected weighted multigraph.
//
// This is the substrate every algorithm in the library runs on. Vertices and
// edges are dense integer ids, adjacency is a per-vertex vector of
// {neighbor, edge id} pairs, and edge weights are mutable so the same
// structure serves both static topologies and the per-request weighted
// auxiliary graphs of Appro_Multi / Online_CP.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace nfvm::graph {

using VertexId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);
inline constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

/// An undirected edge. `u <= v` is NOT guaranteed; endpoints keep insertion
/// order so callers can reconstruct orientation-sensitive metadata.
struct Edge {
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;
  double weight = 1.0;
};

/// One adjacency entry: the neighbor reached and the edge used.
struct Adjacency {
  VertexId neighbor = kInvalidVertex;
  EdgeId edge = kInvalidEdge;
};

/// A self-contained edge description (id, endpoints, weight). Lets the tree
/// and Steiner machinery operate on implicit graphs — e.g. the Appro_Multi
/// auxiliary-graph overlay — without materializing a Graph per query.
struct EdgeRecord {
  EdgeId id = kInvalidEdge;
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;
  double weight = 1.0;
};

class Graph {
 public:
  Graph() = default;
  /// Creates a graph with `num_vertices` isolated vertices.
  explicit Graph(std::size_t num_vertices);

  /// A copy is a distinct graph object: it gets a fresh uid so derived views
  /// and caches (CsrView, SpEngine, SpTreeStore) never mistake it for the
  /// original once the two diverge. Moves transfer the uid (the moved-to
  /// object IS the same logical graph); the moved-from object is left empty
  /// with a fresh uid.
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;
  ~Graph() = default;

  /// Adds an undirected edge. Self-loops and parallel edges are permitted
  /// (parallel edges arise naturally in pseudo-multicast accounting).
  /// Throws std::out_of_range for invalid endpoints and
  /// std::invalid_argument for negative or non-finite weights.
  EdgeId add_edge(VertexId u, VertexId v, double weight = 1.0);

  std::size_t num_vertices() const noexcept { return adjacency_.size(); }
  std::size_t num_edges() const noexcept { return edges_.size(); }

  bool has_vertex(VertexId v) const noexcept { return v < adjacency_.size(); }
  bool has_edge(EdgeId e) const noexcept { return e < edges_.size(); }

  /// Edge record. Throws std::out_of_range on an invalid id.
  const Edge& edge(EdgeId e) const;

  double weight(EdgeId e) const { return edge(e).weight; }
  /// Reassigns an edge weight (>= 0, finite).
  void set_weight(EdgeId e, double weight);

  /// Neighbors of `v` in insertion order. Throws std::out_of_range.
  std::span<const Adjacency> neighbors(VertexId v) const;

  /// Finds some edge between u and v (linear in min degree), if any.
  std::optional<EdgeId> find_edge(VertexId u, VertexId v) const;

  /// All edges, indexed by EdgeId.
  std::span<const Edge> edges() const noexcept { return edges_; }

  /// Identity of this graph object, unique process-wide. Copies get a fresh
  /// uid; moves transfer it. Derived structures (CSR views, shortest-path
  /// caches) key on (uid, epoch) to detect both mutation and rebinding.
  std::uint64_t uid() const noexcept { return uid_; }

  /// Mutation counter: bumped by every add_edge / set_weight. A view or cache built at epoch e is stale iff
  /// epoch() != e (for the same uid()).
  std::uint64_t epoch() const noexcept { return epoch_; }

 private:
  std::vector<Edge> edges_;
  std::vector<std::vector<Adjacency>> adjacency_;
  std::uint64_t uid_ = next_uid();
  std::uint64_t epoch_ = 0;

  static std::uint64_t next_uid() noexcept;
  void check_vertex(VertexId v) const;
};

}  // namespace nfvm::graph
