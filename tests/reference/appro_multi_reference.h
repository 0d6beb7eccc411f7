// Appro_Multi as it stood before one production path: the paper-literal
// evaluation engine, the exhaustive combination sweep and the materialized
// auxiliary graph G_k^i they ran on.
//
// core::appro_multi runs the shared-Dijkstra engine under branch-and-bound
// only. This copy keeps every engine x search pair, counters and spans
// included, as the oracle the tests and benches check it against:
//   * Engine::kReference runs graph::kmb_steiner in every materialized
//     auxiliary graph (|terminals| Dijkstras per combination, Algorithm 1
//     step 7 verbatim). Engine::kSharedDijkstra evaluates each combination
//     from per-request shared tables (core::SharedComboSolver) and gives
//     identical trees whenever shortest paths are unique.
//   * Search::kLegacySweep enumerates and evaluates every combination, then
//     stable-sorts by cost. Search::kBranchAndBound is core::ComboSearch,
//     which returns the sweep's argmin; with the shared engine it also skips
//     dominated combinations, and it is then core::appro_multi exactly.
#pragma once

#include <span>
#include <vector>

#include "core/appro_multi.h"
#include "core/aux_graph.h"
#include "graph/graph.h"

namespace nfvm::reference {

/// One auxiliary graph G_k^i, materialized.
struct AuxiliaryGraph {
  graph::Graph graph;
  graph::VertexId virtual_source = graph::kInvalidVertex;
  /// Edge ids < num_real_edges coincide with `cost_graph` edge ids; edge id
  /// num_real_edges + i is the virtual edge to combo[i].
  std::size_t num_real_edges = 0;
  std::vector<graph::VertexId> combo;
  /// Physical-path edges (cost_graph ids) realizing each virtual edge.
  std::vector<std::vector<graph::EdgeId>> virtual_paths;

  bool is_virtual(graph::EdgeId e) const { return e >= num_real_edges; }
  std::size_t virtual_index(graph::EdgeId e) const { return e - num_real_edges; }
};

/// Builds G_k^i for the given combination (core/aux_graph.h describes the
/// construction; core::AuxOverlay is the same graph without the copy).
/// Every vertex of `combo` must be reachable in ctx.cost_graph
/// (eligible_servers guarantees it); throws std::invalid_argument otherwise.
/// Counted by `core.appro_multi.aux_graphs_built`.
AuxiliaryGraph build_auxiliary_graph(const core::WorkContext& ctx,
                                     graph::VertexId source,
                                     std::span<const graph::VertexId> combo);

/// core::realize_pseudo_tree over a materialized auxiliary graph: identical
/// semantics and output to the overlay overload.
core::PseudoMulticastTree realize_pseudo_tree(
    const core::WorkContext& ctx, const AuxiliaryGraph& aux,
    const std::vector<graph::EdgeId>& tree_edges, const nfv::Request& request);

/// How a combination is evaluated.
enum class Engine { kReference, kSharedDijkstra };
/// How the combination space is searched.
enum class Search { kLegacySweep, kBranchAndBound };

/// Appro_Multi with the given engine and search. Reads max_servers,
/// resources, max_combinations and beam_width from `options`; its engine and
/// search fields are ignored. Throws like core::appro_multi.
core::OfflineSolution appro_multi(const topo::Topology& topo,
                                  const core::LinearCosts& costs,
                                  const nfv::Request& request,
                                  const core::ApproMultiOptions& options,
                                  Engine engine, Search search);

}  // namespace nfvm::reference
