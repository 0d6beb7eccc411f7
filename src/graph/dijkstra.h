// Single-source shortest paths (Dijkstra) with path extraction.
//
// All edge weights in this library are non-negative by construction (the
// Graph class enforces it), so Dijkstra is always applicable.
#pragma once

#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "graph/graph.h"

namespace nfvm::graph {

inline constexpr double kInfiniteDistance = std::numeric_limits<double>::infinity();

/// Shortest-path tree from one source.
struct ShortestPaths {
  VertexId source = kInvalidVertex;
  /// dist[v] = weight of the shortest path source -> v (inf if unreachable).
  std::vector<double> dist;
  /// parent[v] = previous vertex on a shortest path (kInvalidVertex for the
  /// source and unreachable vertices).
  std::vector<VertexId> parent;
  /// parent_edge[v] = edge used to reach v from parent[v].
  std::vector<EdgeId> parent_edge;

  bool reachable(VertexId v) const { return dist.at(v) < kInfiniteDistance; }
};

/// Runs Dijkstra from `source`. Throws std::out_of_range for a bad source.
ShortestPaths dijkstra(const Graph& g, VertexId source);

/// Dijkstra that ignores edges for which `edge_allowed(e)` is false.
/// Used to prune links without sufficient residual bandwidth.
ShortestPaths dijkstra_filtered(const Graph& g, VertexId source,
                                const std::function<bool(EdgeId)>& edge_allowed);

/// Vertices of the shortest path source -> target (inclusive). Empty when
/// target is unreachable; {source} when target == source.
std::vector<VertexId> path_vertices(const ShortestPaths& sp, VertexId target);

/// Edges of the shortest path source -> target in travel order. Empty when
/// unreachable or target == source.
std::vector<EdgeId> path_edges(const ShortestPaths& sp, VertexId target);

/// Calls `fn(e)` for every edge of the shortest path source -> target,
/// walking parent pointers up from `target` (reverse travel order) without
/// building a path vector. Same edges and same errors as path_edges: throws
/// std::out_of_range for a bad target, visits nothing when unreachable.
template <typename Fn>
void for_each_path_edge(const ShortestPaths& sp, VertexId target, Fn&& fn) {
  if (target >= sp.dist.size()) {
    throw std::out_of_range("path_edges: invalid target vertex");
  }
  if (!sp.reachable(target)) return;
  for (VertexId v = target; v != sp.source && sp.parent[v] != kInvalidVertex;
       v = sp.parent[v]) {
    fn(sp.parent_edge[v]);
  }
}

/// Weight of the shortest path between two vertices. Early-exits as soon as
/// `to` is settled instead of exploring the whole graph. Throws
/// std::out_of_range for a bad `from` or `to`. Prefer caching a
/// ShortestPaths (or a graph::SpCache) when querying many pairs from one
/// source.
double shortest_distance(const Graph& g, VertexId from, VertexId to);

}  // namespace nfvm::graph
