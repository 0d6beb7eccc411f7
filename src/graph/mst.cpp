#include "graph/mst.h"

#include <algorithm>

#include "graph/union_find.h"

namespace nfvm::graph {

MstResult kruskal_mst_subset(const Graph& g, std::span<const EdgeId> edges) {
  std::vector<EdgeId> candidate_edges(edges.begin(), edges.end());
  std::stable_sort(candidate_edges.begin(), candidate_edges.end(),
                   [&g](EdgeId a, EdgeId b) { return g.weight(a) < g.weight(b); });

  UnionFind uf(g.num_vertices());
  MstResult result;
  std::vector<bool> touched(g.num_vertices(), false);
  for (EdgeId e : candidate_edges) {
    const Edge& ed = g.edge(e);
    touched[ed.u] = true;
    touched[ed.v] = true;
  }

  for (EdgeId e : candidate_edges) {
    const Edge& ed = g.edge(e);
    if (uf.unite(ed.u, ed.v)) {
      result.edges.push_back(e);
      result.weight += ed.weight;
    }
  }

  // The forest spans if every touched vertex is in one component.
  std::size_t root = static_cast<std::size_t>(-1);
  bool spanning = true;
  bool any = false;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!touched[v]) continue;
    any = true;
    const std::size_t r = uf.find(v);
    if (root == static_cast<std::size_t>(-1)) {
      root = r;
    } else if (r != root) {
      spanning = false;
      break;
    }
  }
  result.spanning = any && spanning;
  return result;
}

}  // namespace nfvm::graph
