// Per-request working context and the auxiliary graphs of Algorithm 1.
//
// The WorkContext owns the request's cost-weighted working graph and its
// shortest-path trees (a graph::TreeTable keyed by root), which every
// offline stage reads through ctx.trees.from(v).
//
// For a request r_k and a server combination V_S^i, the auxiliary graph is
//   G_k^i = (V ∪ {s'_k}, E ∪ {(s'_k, v) : v ∈ V_S^i})
// where the virtual edge (s'_k, v) stands for "route from s_k to v along a
// shortest path, then run SC_k at v" and is weighted accordingly
// (sum of link costs on p_{s_k,v} at b_k Mbps, plus c_v(SC_k)). Real edges
// keep their bandwidth cost c_e * b_k, except that a physical edge (s_k, v)
// with v ∈ V_S^i costs zero (the paper's double-counting correction). A
// Steiner tree over {s'_k} ∪ D_k in G_k^i therefore forces every destination
// path through a chosen server. AuxOverlay holds G_k^i as a patch over the
// working graph; the materialized copy is a test oracle
// (tests/reference/appro_multi_reference.h).
#pragma once

#include <span>
#include <vector>

#include "core/cost_model.h"
#include "core/pseudo_tree.h"
#include "graph/dijkstra.h"
#include "graph/graph.h"
#include "graph/sp_engine.h"
#include "nfv/request.h"
#include "nfv/resources.h"
#include "topology/topology.h"

namespace nfvm::core {

/// Everything the offline algorithms need about one request, computed once:
/// the (optionally capacity-filtered) cost-weighted graph, its shortest-path
/// trees, and the eligible server set.
struct WorkContext {
  /// Physical graph restricted to links with residual bandwidth >= b_k
  /// (unrestricted when uncapacitated), with edge weight = c_e * b_k.
  graph::Graph cost_graph;
  /// cost_graph edge id -> physical edge id.
  std::vector<graph::EdgeId> to_physical;
  /// Shortest-path trees on `cost_graph` by root vertex, shared by every
  /// algorithm stage touching this request (source, destination and server
  /// trees) and added through context_trees; build_work_context computes
  /// the source's. `cost_graph` never changes once built and the table is
  /// never cleared, so every reference from trees.from(v) stays valid for
  /// the context's lifetime.
  graph::TreeTable trees;
  /// Servers that can host SC_k: enough residual computing (capacitated
  /// case) and reachable from the source. Sorted ascending.
  std::vector<graph::VertexId> eligible_servers;
  /// c_v(SC_k) per vertex (only meaningful for servers).
  std::vector<double> server_chain_cost;
  /// False when some destination is unreachable from the source in
  /// `cost_graph` (the request must then be rejected).
  bool destinations_reachable = false;
};

/// Builds the context. `resources == nullptr` means uncapacitated.
WorkContext build_work_context(const topo::Topology& topo, const LinearCosts& costs,
                               const nfv::Request& request,
                               const nfv::ResourceState* resources);

/// Adds the tree from each of `sources` on ctx.cost_graph to ctx.trees
/// (graph::TreeTable::compute: each missing root once, in one fan-out).
/// Each lookup counts one of graph.spcache.{hits,misses}: a miss for the
/// first lookup of a root, a hit for every later one. Throws
/// std::out_of_range for a bad source.
void context_trees(WorkContext& ctx, std::span<const graph::VertexId> sources);

/// G_k^i as a view over ctx.cost_graph: instead of copying the whole
/// working graph per combination, it records only what differs from the
/// working graph — the virtual-edge tail and the zero-cost star patch list.
/// Edge ids < num_real_edges are cost_graph ids, id num_real_edges + i is
/// the virtual edge to combo[i].
struct AuxOverlay {
  const WorkContext* ctx = nullptr;
  graph::VertexId virtual_source = graph::kInvalidVertex;
  std::size_t num_real_edges = 0;
  std::vector<graph::VertexId> combo;
  /// Weight of virtual edge i: d(s_k, combo[i]) + c_{combo[i]}(SC_k).
  std::vector<double> virtual_weight;
  /// Real (s_k, v) edges with v in the combo, patched to weight zero by the
  /// double-counting correction. Sorted ascending.
  std::vector<graph::EdgeId> zero_edges;

  /// Vertex count including the virtual source (id == |V| of cost_graph).
  std::size_t num_vertices() const { return ctx->cost_graph.num_vertices() + 1; }
  bool is_virtual(graph::EdgeId e) const { return e >= num_real_edges; }
  std::size_t virtual_index(graph::EdgeId e) const { return e - num_real_edges; }
  /// Overlay edge weight (star patches and virtual edges applied).
  double weight(graph::EdgeId e) const;
  /// Self-contained record of edge `e` for the record-based tree machinery
  /// (graph::RootedTree).
  graph::EdgeRecord record(graph::EdgeId e) const;
};

/// Builds the overlay for a combination. Every vertex of `combo` must be
/// reachable in ctx.cost_graph (eligible_servers guarantees it); throws
/// std::invalid_argument otherwise, or for an empty combination. Counted by
/// `core.appro_multi.aux_overlays`.
AuxOverlay build_aux_overlay(const WorkContext& ctx, graph::VertexId source,
                             std::span<const graph::VertexId> combo);

/// Realizes the physical pseudo-multicast tree from an auxiliary-graph
/// Steiner tree (Algorithm 1 steps 10-12 plus the Fig. 3 routing semantics):
/// virtual edges expand into the source's shortest path to their server
/// plus a chain instance there; every destination's walk is the physical
/// path to its branch server followed by the tree path below it. Throws
/// std::logic_error if `tree_edges` is not a tree spanning the virtual
/// source and all destinations.
PseudoMulticastTree realize_pseudo_tree(const WorkContext& ctx,
                                        const AuxOverlay& aux,
                                        const std::vector<graph::EdgeId>& tree_edges,
                                        const nfv::Request& request);

}  // namespace nfvm::core
