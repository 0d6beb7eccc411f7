#include "reference/takahashi_matsuyama.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "graph/dijkstra.h"
#include "graph/kmb_kernel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nfvm::reference {

using graph::EdgeId;
using graph::VertexId;

graph::SteinerResult takahashi_matsuyama_steiner(
    const graph::Graph& g, std::span<const VertexId> terminals) {
  NFVM_SPAN("steiner/takahashi_matsuyama");
  NFVM_COUNTER_INC("graph.steiner.tm.runs");
  const std::span<const VertexId> terms =
      graph::KmbKernel::thread_local_kernel().distinct_terminals(g.num_vertices(),
                                                                 terminals);
  graph::SteinerResult result;
  if (terms.size() == 1) {
    result.connected = true;
    return result;
  }

  const std::size_t n = g.num_vertices();
  std::vector<char> in_tree(n, 0);
  std::vector<char> pending(n, 0);
  in_tree[terms[0]] = 1;
  for (std::size_t i = 1; i < terms.size(); ++i) pending[terms[i]] = 1;
  std::size_t num_pending = terms.size() - 1;

  std::vector<double> dist(n);
  std::vector<VertexId> parent(n);
  std::vector<EdgeId> parent_edge(n);
  using Item = std::pair<double, VertexId>;
  while (num_pending > 0) {
    // One multi-source Dijkstra: every tree vertex at distance zero, run
    // until the first pending terminal settles. A terminal an earlier path
    // ran through is in the tree and settles at distance zero.
    std::fill(dist.begin(), dist.end(), graph::kInfiniteDistance);
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    for (VertexId v = 0; v < n; ++v) {
      if (in_tree[v] == 0) continue;
      dist[v] = 0.0;
      heap.emplace(0.0, v);
    }
    VertexId reached = graph::kInvalidVertex;
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) continue;  // stale entry
      if (pending[u] != 0) {
        reached = u;
        break;
      }
      for (const graph::Adjacency& adj : g.neighbors(u)) {
        const double nd = d + g.weight(adj.edge);
        if (nd < dist[adj.neighbor]) {
          dist[adj.neighbor] = nd;
          parent[adj.neighbor] = u;
          parent_edge[adj.neighbor] = adj.edge;
          heap.emplace(nd, adj.neighbor);
        }
      }
    }
    if (reached == graph::kInvalidVertex) return result;  // disconnected

    pending[reached] = 0;
    --num_pending;
    for (VertexId v = reached; in_tree[v] == 0; v = parent[v]) {
      in_tree[v] = 1;
      result.edges.push_back(parent_edge[v]);
      result.weight += g.weight(parent_edge[v]);
    }
  }
  std::sort(result.edges.begin(), result.edges.end());
  result.connected = true;
  return result;
}

}  // namespace nfvm::reference
