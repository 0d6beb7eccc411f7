#include "graph/csr.h"

#include "obs/metrics.h"

namespace nfvm::graph {

void CsrView::rebuild(const Graph& g) {
  NFVM_COUNTER_INC("graph.csr.rebuilds");
  const std::size_t n = g.num_vertices();
  const std::span<const Edge> edges = g.edges();

  offsets_.assign(n + 1, 0);
  std::size_t total = 0;
  for (VertexId v = 0; v < n; ++v) total += g.neighbors(v).size();
  entries_.clear();
  entries_.reserve(total);

  unit_weights_ = true;
  for (VertexId v = 0; v < n; ++v) {
    offsets_[v] = entries_.size();
    for (const Adjacency& adj : g.neighbors(v)) {
      const double w = edges[adj.edge].weight;
      entries_.push_back(CsrEntry{adj.neighbor, adj.edge, w});
      if (w != 1.0) unit_weights_ = false;
    }
  }
  offsets_[n] = entries_.size();

  uid_ = g.uid();
  epoch_ = g.epoch();
  built_ = true;
}

}  // namespace nfvm::graph
