#include "graph/steiner.h"

#include "graph/dijkstra.h"
#include "graph/kmb_kernel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace nfvm::graph {
namespace {

/// An owned copy of the sorted distinct terminals, for callers that build
/// further Steiner trees (and so reuse the kernel's scratch) while holding
/// them.
std::vector<VertexId> distinct_terminals(const Graph& g,
                                         std::span<const VertexId> terminals) {
  const std::span<const VertexId> distinct =
      KmbKernel::thread_local_kernel().distinct_terminals(g.num_vertices(),
                                                          terminals);
  return std::vector<VertexId>(distinct.begin(), distinct.end());
}

EdgeRecord graph_record(const Graph& g, EdgeId e) {
  const Edge& ed = g.edge(e);
  return EdgeRecord{e, ed.u, ed.v, ed.weight};
}

/// KMB steps 2-5 against per-terminal shortest-path tables (one table per
/// entry of `terms`, in order). Both kmb_steiner (freshly computed tables)
/// and kmb_steiner_from_tables (caller-cached tables) funnel through here,
/// which is what makes the two bit-identical.
SteinerResult kmb_from_terminal_tables(const Graph& g,
                                       std::span<const VertexId> terms,
                                       std::span<const ShortestPaths* const> sp) {
  for (std::size_t i = 1; i < terms.size(); ++i) {
    if (!sp[0]->reachable(terms[i])) return SteinerResult{};  // disconnected
  }

  // Step 2: MST of the metric closure (Prim on the t x t distance matrix).
  // Every terminal is reachable from terms[0], so the closure is connected.
  KmbKernel& kernel = KmbKernel::thread_local_kernel();
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

}  // namespace

SteinerResult kmb_steiner(const Graph& g, std::span<const VertexId> terminals) {
  NFVM_SPAN("steiner/kmb");
  NFVM_COUNTER_INC("graph.steiner.kmb.runs");
  const std::vector<VertexId> terms = distinct_terminals(g, terminals);
  SteinerResult result;
  if (terms.size() == 1) {
    result.connected = true;
    return result;
  }

  // Step 1: shortest paths from every terminal, one slot per terminal so
  // the fan-out is deterministic regardless of thread count.
  std::vector<ShortestPaths> sp(terms.size());
  {
    NFVM_SPAN("steiner/kmb/terminal_sssp");
    util::ThreadPool::global().parallel_for(
        terms.size(), [&](std::size_t i) { sp[i] = dijkstra(g, terms[i]); });
  }
  std::vector<const ShortestPaths*> tables(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) tables[i] = &sp[i];
  return kmb_from_terminal_tables(g, terms, tables);
}

SteinerResult kmb_steiner_from_tables(
    const Graph& g, std::span<const VertexId> terminals,
    const std::function<const ShortestPaths&(VertexId)>& table_for) {
  NFVM_SPAN("steiner/kmb_from_tables");
  NFVM_COUNTER_INC("graph.steiner.kmb.runs");
  const std::span<const VertexId> terms =
      KmbKernel::thread_local_kernel().distinct_terminals(g.num_vertices(),
                                                          terminals);
  SteinerResult result;
  if (terms.size() == 1) {
    result.connected = true;
    return result;
  }
  thread_local std::vector<const ShortestPaths*> tables;
  tables.resize(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) tables[i] = &table_for(terms[i]);
  return kmb_from_terminal_tables(g, terms, tables);
}

}  // namespace nfvm::graph
