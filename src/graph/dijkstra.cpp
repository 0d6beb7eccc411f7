#include "graph/dijkstra.h"

#include <algorithm>
#include <stdexcept>

#include "graph/sp_engine.h"

namespace nfvm::graph {

ShortestPaths dijkstra(const Graph& g, VertexId source) {
  return SpEngine::thread_local_engine().shortest_paths(g, source);
}

ShortestPaths dijkstra_filtered(const Graph& g, VertexId source,
                                const std::function<bool(EdgeId)>& edge_allowed) {
  return SpEngine::thread_local_engine().shortest_paths_filtered(g, source,
                                                                 edge_allowed);
}

std::vector<VertexId> path_vertices(const ShortestPaths& sp, VertexId target) {
  if (target >= sp.dist.size()) {
    throw std::out_of_range("path_vertices: invalid target vertex");
  }
  if (!sp.reachable(target)) return {};
  std::vector<VertexId> path;
  for (VertexId v = target; v != kInvalidVertex; v = sp.parent[v]) {
    path.push_back(v);
    if (v == sp.source) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<EdgeId> path_edges(const ShortestPaths& sp, VertexId target) {
  std::vector<EdgeId> edges;
  for_each_path_edge(sp, target, [&edges](EdgeId e) { edges.push_back(e); });
  std::reverse(edges.begin(), edges.end());
  return edges;
}

double shortest_distance(const Graph& g, VertexId from, VertexId to) {
  return SpEngine::thread_local_engine().shortest_distance(g, from, to);
}

}  // namespace nfvm::graph
