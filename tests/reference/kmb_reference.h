// Test-only reference for the KMB finishing steps: the node-based-set
// union, kruskal_mst_subset and leaf-pruning pipeline that graph::KmbKernel
// replaced, kept verbatim in behaviour so the tests can require the kernel
// to match it bit for bit (same edges in the same order, same weight bits,
// same exceptions).
#pragma once

#include <functional>
#include <span>

#include "graph/dijkstra.h"
#include "graph/graph.h"
#include "graph/steiner.h"

namespace nfvm::reference {

/// graph::kmb_steiner_from_tables as it was: distinct terminals, Prim over
/// the closure, expansion into an unordered_set, sort by id,
/// kruskal_mst_subset, leaf pruning, weight summed in MST order.
graph::SteinerResult kmb_steiner_from_tables(
    const graph::Graph& g, std::span<const graph::VertexId> terminals,
    const std::function<const graph::ShortestPaths&(graph::VertexId)>& table_for);

}  // namespace nfvm::reference
