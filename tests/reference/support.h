// Checkers and helpers only tests use, written over the public API: the
// combination enumerator the reference sweeps walk, whole-graph Kruskal,
// connectivity, Steiner-tree and topology validators, uniform unit costs, masked single-source Dijkstra and the
// ledger's allocated totals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/cost_model.h"
#include "graph/dijkstra.h"
#include "graph/mst.h"
#include "graph/sp_engine.h"
#include "nfv/resources.h"
#include "topology/topology.h"

namespace nfvm::reference {

/// Advances `idx` (strictly increasing indices into [0, n)) to the next
/// K-combination in lexicographic order; false when exhausted. An empty
/// `idx` (k == 0) has no successor and returns false.
bool next_combination(std::vector<std::size_t>& idx, std::size_t n);

/// Minimum spanning forest of the whole graph; `spanning` is true iff it is
/// one tree over every vertex. Deterministic: ties are broken by edge id.
graph::MstResult kruskal_mst(const graph::Graph& g);

/// True iff the whole graph is one connected component (empty graph: true).
bool is_connected(const graph::Graph& g);

/// True iff `edges` forms a tree (acyclic, connected over the vertices it
/// touches) containing every terminal; a single distinct terminal needs no
/// edge.
bool is_steiner_tree(const graph::Graph& g, std::span<const graph::EdgeId> edges,
                     std::span<const graph::VertexId> terminals);

/// Internal consistency of a generated topology (sizes, sorted servers,
/// positive capacities and delays, connected graph); throws
/// std::logic_error on a violation.
void validate_topology(const topo::Topology& topo);

/// All links cost `link_cost` per Mbps, all servers `server_cost` per MHz.
core::LinearCosts uniform_costs(const topo::Topology& topo, double link_cost = 1.0,
                                double server_cost = 1.0);

/// A fresh Dijkstra from `source` through `engine`, ignoring edges whose
/// mask byte is zero (an empty mask allows every edge).
graph::ShortestPaths shortest_paths_masked(graph::SpEngine& engine, const graph::Graph& g,
                                           graph::VertexId source,
                                           std::span<const std::uint8_t> edge_mask);

/// Bandwidth (Mbps) and compute (MHz) the ledger has allocated: capacity
/// minus residual, summed over links or switches.
double total_allocated_bandwidth(const topo::Topology& topo, const nfv::ResourceState& state);
double total_allocated_compute(const topo::Topology& topo, const nfv::ResourceState& state);

}  // namespace nfvm::reference
