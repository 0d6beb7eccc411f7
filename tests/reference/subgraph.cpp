#include "reference/subgraph.h"

namespace nfvm::reference {

using graph::Edge;
using graph::EdgeId;
using graph::Graph;

std::vector<EdgeId> Subgraph::to_original(const std::vector<EdgeId>& sub_edges) const {
  std::vector<EdgeId> out;
  out.reserve(sub_edges.size());
  for (EdgeId e : sub_edges) out.push_back(original_edge.at(e));
  return out;
}

Subgraph filter_edges(const Graph& g, const std::function<bool(EdgeId)>& keep_edge) {
  Subgraph sub;
  sub.graph = Graph(g.num_vertices());
  sub.original_edge.reserve(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!keep_edge(e)) continue;
    const Edge& ed = g.edge(e);
    sub.graph.add_edge(ed.u, ed.v, ed.weight);
    sub.original_edge.push_back(e);
  }
  return sub;
}

}  // namespace nfvm::reference
