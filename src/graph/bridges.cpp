#include "graph/bridges.h"

#include <algorithm>
#include <stack>

namespace nfvm::graph {

CutAnalysis find_cut_elements(const Graph& g) {
  const std::size_t n = g.num_vertices();
  std::vector<int> disc(n, -1);
  std::vector<int> low(n, 0);
  std::vector<EdgeId> parent_edge(n, kInvalidEdge);
  std::vector<bool> is_ap(n, false);
  CutAnalysis result;

  int timer = 0;
  // Iterative DFS: each frame tracks the adjacency cursor so lowlink updates
  // happen when a child's subtree completes.
  struct Frame {
    VertexId v;
    std::size_t next_adj = 0;
    int tree_children = 0;
    bool is_root = false;
  };

  for (VertexId start = 0; start < n; ++start) {
    if (disc[start] != -1) continue;
    std::stack<Frame> stack;
    stack.push(Frame{start, 0, 0, true});
    disc[start] = low[start] = timer++;

    while (!stack.empty()) {
      Frame& frame = stack.top();
      const VertexId v = frame.v;
      const auto neighbors = g.neighbors(v);
      if (frame.next_adj < neighbors.size()) {
        const Adjacency adj = neighbors[frame.next_adj++];
        if (adj.edge == parent_edge[v]) continue;  // skip the tree edge used
        if (adj.neighbor == v) continue;           // self-loop
        if (disc[adj.neighbor] != -1) {
          low[v] = std::min(low[v], disc[adj.neighbor]);  // back edge
          continue;
        }
        parent_edge[adj.neighbor] = adj.edge;
        disc[adj.neighbor] = low[adj.neighbor] = timer++;
        ++frame.tree_children;
        stack.push(Frame{adj.neighbor, 0, 0, false});
      } else {
        const Frame me = frame;  // copy before pop invalidates the reference
        stack.pop();
        if (stack.empty()) {
          if (me.is_root && me.tree_children >= 2) is_ap[me.v] = true;
          continue;
        }
        const VertexId p = stack.top().v;
        low[p] = std::min(low[p], low[me.v]);
        if (low[me.v] > disc[p]) result.bridges.push_back(parent_edge[me.v]);
        if (!stack.top().is_root && low[me.v] >= disc[p]) is_ap[p] = true;
        if (stack.top().is_root && stack.top().tree_children >= 2) is_ap[p] = true;
      }
    }
  }

  for (VertexId v = 0; v < n; ++v) {
    if (is_ap[v]) result.articulation_points.push_back(v);
  }
  std::sort(result.bridges.begin(), result.bridges.end());
  return result;
}

}  // namespace nfvm::graph
