// Per-request working context and the auxiliary graphs of Algorithm 1.
//
// For a request r_k and a server combination V_S^i, the auxiliary graph is
//   G_k^i = (V ∪ {s'_k}, E ∪ {(s'_k, v) : v ∈ V_S^i})
// where the virtual edge (s'_k, v) stands for "route from s_k to v along a
// shortest path, then run SC_k at v" and is weighted accordingly
// (sum of link costs on p_{s_k,v} at b_k Mbps, plus c_v(SC_k)). Real edges
// keep their bandwidth cost c_e * b_k, except that a physical edge (s_k, v)
// with v ∈ V_S^i costs zero (the paper's double-counting correction). A
// Steiner tree over {s'_k} ∪ D_k in G_k^i therefore forces every destination
// path through a chosen server.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/cost_model.h"
#include "core/pseudo_tree.h"
#include "graph/dijkstra.h"
#include "graph/graph.h"
#include "nfv/request.h"
#include "nfv/resources.h"
#include "topology/topology.h"
#include "util/arena.h"

namespace nfvm::core {

/// Everything the offline algorithms need about one request, computed once:
/// the (optionally capacity-filtered) cost-weighted graph, shortest paths
/// from the source, and the eligible server set.
struct WorkContext {
  /// Physical graph restricted to links with residual bandwidth >= b_k
  /// (unrestricted when uncapacitated), with edge weight = c_e * b_k.
  graph::Graph cost_graph;
  /// cost_graph edge id -> physical edge id.
  std::vector<graph::EdgeId> to_physical;
  /// Dijkstra from the request source on `cost_graph`.
  graph::ShortestPaths sp_source;
  /// Shortest-path trees on `cost_graph` by root vertex, shared by every
  /// algorithm stage touching this request (source, destination and server
  /// trees); null until context_trees builds one. build_work_context seeds
  /// the source tree. `cost_graph` never changes once built, so no entry
  /// ever goes stale.
  mutable std::vector<std::shared_ptr<const graph::ShortestPaths>> trees;
  /// Servers that can host SC_k: enough residual computing (capacitated
  /// case) and reachable from the source. Sorted ascending.
  std::vector<graph::VertexId> eligible_servers;
  /// c_v(SC_k) per vertex (only meaningful for servers).
  std::vector<double> server_chain_cost;
  /// False when some destination is unreachable from the source in
  /// `cost_graph` (the request must then be rejected).
  bool destinations_reachable = false;
  /// Request-lifetime bump arena for short-lived record buffers built in
  /// the request's *sequential* phases (e.g. the per-candidate EdgeRecord
  /// buffer in realize_pseudo_tree). Dies with the context — the epoch
  /// reset between requests. Never null after build_work_context. Parallel
  /// phases must use util::Arena::thread_local_arena() instead.
  std::shared_ptr<util::Arena> arena;
};

/// Builds the context. `resources == nullptr` means uncapacitated.
WorkContext build_work_context(const topo::Topology& topo, const LinearCosts& costs,
                               const nfv::Request& request,
                               const nfv::ResourceState* resources);

/// Shortest-path trees on ctx.cost_graph from each of `sources`, in order.
/// Trees already in ctx.trees are shared as they are; the missing ones are
/// computed once each (a repeated source shares one tree) in one
/// graph::batch_dijkstra fan-out and stored. Each lookup counts one of
/// graph.spcache.{hits,misses}: a miss for the first lookup of a root, a
/// hit for every later one. Throws std::out_of_range for a bad source.
std::vector<std::shared_ptr<const graph::ShortestPaths>> context_trees(
    const WorkContext& ctx, std::span<const graph::VertexId> sources);

/// One auxiliary graph G_k^i.
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

/// Builds G_k^i for the given combination. Every vertex of `combo` must be
/// reachable in ctx.cost_graph (eligible_servers guarantees it); throws
/// std::invalid_argument otherwise.
AuxiliaryGraph build_auxiliary_graph(const WorkContext& ctx,
                                     graph::VertexId source,
                                     std::span<const graph::VertexId> combo);

/// Lightweight view of G_k^i over ctx.cost_graph: instead of copying the
/// whole working graph per combination (the dominant allocation of the
/// Appro_Multi fan-out), it records only what differs from the working
/// graph — the virtual-edge tail and the zero-cost star patch list. Edge
/// ids follow the AuxiliaryGraph scheme exactly: ids < num_real_edges are
/// cost_graph ids, id num_real_edges + i is the virtual edge to combo[i].
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
  /// Self-contained record of edge `e` for the record-based tree/Steiner
  /// machinery (graph::kmb_finish, graph::RootedTree).
  graph::EdgeRecord record(graph::EdgeId e) const;
};

/// Builds the overlay for a combination: same validation and semantics as
/// build_auxiliary_graph without materializing a Graph. Counted by
/// `core.appro_multi.aux_overlays`.
AuxOverlay build_aux_overlay(const WorkContext& ctx, graph::VertexId source,
                             std::span<const graph::VertexId> combo);

/// Realizes the physical pseudo-multicast tree from an auxiliary-graph
/// Steiner tree (Algorithm 1 steps 10-12 plus the Fig. 3 routing semantics):
/// virtual edges expand into the stored shortest path plus a chain instance
/// at their server; every destination's walk is the physical path to its
/// branch server followed by the tree path below it. Throws std::logic_error
/// if `tree_edges` is not a tree spanning the virtual source and all
/// destinations.
PseudoMulticastTree realize_pseudo_tree(const WorkContext& ctx,
                                        const AuxiliaryGraph& aux,
                                        const std::vector<graph::EdgeId>& tree_edges,
                                        const nfv::Request& request);

/// Overlay variant: identical semantics and output to the AuxiliaryGraph
/// overload (virtual paths are re-derived from ctx.sp_source, which is what
/// the materialized graph stored), without building the aux graph copy.
PseudoMulticastTree realize_pseudo_tree(const WorkContext& ctx,
                                        const AuxOverlay& aux,
                                        const std::vector<graph::EdgeId>& tree_edges,
                                        const nfv::Request& request);

}  // namespace nfvm::core
