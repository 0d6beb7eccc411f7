#include "graph/components.h"

#include <queue>

namespace nfvm::graph {

Components connected_components(const Graph& g) {
  Components result;
  result.component.assign(g.num_vertices(), static_cast<std::size_t>(-1));
  std::queue<VertexId> queue;
  for (VertexId start = 0; start < g.num_vertices(); ++start) {
    if (result.component[start] != static_cast<std::size_t>(-1)) continue;
    const std::size_t label = result.count++;
    result.component[start] = label;
    queue.push(start);
    while (!queue.empty()) {
      const VertexId u = queue.front();
      queue.pop();
      for (const Adjacency& adj : g.neighbors(u)) {
        if (result.component[adj.neighbor] == static_cast<std::size_t>(-1)) {
          result.component[adj.neighbor] = label;
          queue.push(adj.neighbor);
        }
      }
    }
  }
  return result;
}

}  // namespace nfvm::graph
