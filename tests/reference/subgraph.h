// Test-only edge-filtered subgraph copies: the per-request graph of links
// with enough residual bandwidth that the online rebuild scans
// (reference/online_reference.h) build before every decision. Vertex ids are
// preserved (V' = V in the paper's construction); edge ids are remapped and
// the mapping back to the original graph is retained. Production code masks
// edges instead (nfv::edge_eligible) and never copies the graph.
#pragma once

#include <functional>
#include <vector>

#include "graph/graph.h"

namespace nfvm::reference {

struct Subgraph {
  graph::Graph graph;
  /// original_edge[e'] = id in the source graph of subgraph edge e'.
  std::vector<graph::EdgeId> original_edge;

  /// Maps a list of subgraph edge ids back to source-graph ids.
  std::vector<graph::EdgeId> to_original(
      const std::vector<graph::EdgeId>& sub_edges) const;
};

/// Copies `g` keeping only edges with `keep_edge(e) == true`.
Subgraph filter_edges(const graph::Graph& g,
                      const std::function<bool(graph::EdgeId)>& keep_edge);

}  // namespace nfvm::reference
