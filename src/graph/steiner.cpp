#include "graph/steiner.h"

#include "graph/dijkstra.h"
#include "graph/kmb_kernel.h"
#include "graph/sp_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nfvm::graph {
namespace {

EdgeRecord graph_record(const Graph& g, EdgeId e) {
  const Edge& ed = g.edge(e);
  return EdgeRecord{e, ed.u, ed.v, ed.weight};
}

}  // namespace

SteinerResult kmb_steiner(const Graph& g, std::span<const VertexId> terminals) {
  NFVM_SPAN("steiner/kmb");
  // Step 1: shortest paths from every distinct terminal, in one table (none
  // for a single terminal). Validates the terminals before any tree runs.
  const std::span<const VertexId> terms =
      KmbKernel::thread_local_kernel().distinct_terminals(g.num_vertices(),
                                                          terminals);
  TreeTable trees;
  if (terms.size() > 1) trees.compute(g, terms);
  return kmb_steiner_from_tables(g, terminals,
                                 [&trees](VertexId t) -> const ShortestPaths& {
                                   return trees.from(t);
                                 });
}

SteinerResult kmb_steiner_from_tables(
    const Graph& g, std::span<const VertexId> terminals,
    const std::function<const ShortestPaths&(VertexId)>& table_for) {
  NFVM_SPAN("steiner/kmb_from_tables");
  NFVM_COUNTER_INC("graph.steiner.kmb.runs");
  KmbKernel& kernel = KmbKernel::thread_local_kernel();
  const std::span<const VertexId> terms =
      kernel.distinct_terminals(g.num_vertices(), terminals);
  SteinerResult result;
  if (terms.size() == 1) {
    result.connected = true;
    return result;
  }
  thread_local std::vector<const ShortestPaths*> sp;
  sp.resize(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) sp[i] = &table_for(terms[i]);
  for (std::size_t i = 1; i < terms.size(); ++i) {
    if (!sp[0]->reachable(terms[i])) return SteinerResult{};  // disconnected
  }

  // Step 2: MST of the metric closure (Prim on the t x t distance matrix).
  // Every terminal is reachable from terms[0], so the closure is connected.
  {
    NFVM_SPAN("steiner/kmb/closure_mst");
    kernel.closure_mst(terms.size(), [&](std::size_t i, std::size_t j) {
      return sp[i]->dist[terms[j]];
    });
  }

  NFVM_SPAN("steiner/kmb/expand_prune");
  // Step 3: expand closure edges into shortest paths; union of their edges.
  kernel.begin_union(g.num_edges());
  for (const auto& [i, j] : kernel.closure_edges()) kernel.add_path(*sp[i], terms[j]);
  // Steps 4-5: MST of the union, then non-terminal leaf pruning.
  return kernel.finish_union(g.num_vertices(), terms,
                             [&g](EdgeId e) { return graph_record(g, e); });
}

}  // namespace nfvm::graph
