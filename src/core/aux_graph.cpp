#include "core/aux_graph.h"

#include <algorithm>
#include <stdexcept>

#include "graph/sp_engine.h"
#include "graph/tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nfvm::core {

WorkContext build_work_context(const topo::Topology& topo, const LinearCosts& costs,
                               const nfv::Request& request,
                               const nfv::ResourceState* resources) {
  NFVM_SPAN("appro_multi/build_work_context");
  nfv::validate_request(request, topo.graph);
  if (costs.link_unit_cost.size() != topo.num_links() ||
      costs.server_unit_cost.size() != topo.num_switches()) {
    throw std::invalid_argument("build_work_context: cost table size mismatch");
  }

  WorkContext ctx;
  const double b = request.bandwidth_mbps;

  // Cost-weighted working graph, dropping links without enough residual
  // bandwidth in the capacitated case (paper Section IV-C: G' = (V, E')).
  ctx.cost_graph = graph::Graph(topo.num_switches());
  ctx.to_physical.reserve(topo.num_links());
  for (graph::EdgeId e = 0; e < topo.num_links(); ++e) {
    // Shared eligibility predicate: residual bandwidth plus forwarding-table
    // pruning (a switch without a free flow entry cannot join any new tree).
    if (resources != nullptr && !nfv::edge_eligible(*resources, topo.graph, e, b)) {
      continue;
    }
    const graph::Edge& ed = topo.graph.edge(e);
    ctx.cost_graph.add_edge(ed.u, ed.v, costs.edge_cost(e, b));
    ctx.to_physical.push_back(e);
  }

  ctx.arena = std::make_shared<util::Arena>();
  ctx.trees.resize(ctx.cost_graph.num_vertices());
  ctx.sp_source = *context_trees(ctx, {&request.source, 1}).front();

  ctx.destinations_reachable = true;
  for (graph::VertexId d : request.destinations) {
    if (!ctx.sp_source.reachable(d)) {
      ctx.destinations_reachable = false;
      break;
    }
  }

  const double demand = request.compute_demand_mhz();
  ctx.server_chain_cost.assign(topo.num_switches(), 0.0);
  for (graph::VertexId v : topo.servers) {
    ctx.server_chain_cost[v] = costs.server_cost(v, demand);
    const bool capacity_ok =
        resources == nullptr || resources->residual_compute(v) >= demand;
    if (capacity_ok && ctx.sp_source.reachable(v)) {
      ctx.eligible_servers.push_back(v);
    }
  }
  return ctx;
}

std::vector<std::shared_ptr<const graph::ShortestPaths>> context_trees(
    const WorkContext& ctx, std::span<const graph::VertexId> sources) {
  NFVM_SPAN("core/context_trees");
  std::vector<graph::VertexId> missing;
  for (const graph::VertexId s : sources) {
    if (ctx.trees.at(s) != nullptr ||
        std::find(missing.begin(), missing.end(), s) != missing.end()) {
      NFVM_COUNTER_INC("graph.spcache.hits");
    } else {
      NFVM_COUNTER_INC("graph.spcache.misses");
      missing.push_back(s);
    }
  }
  if (!missing.empty()) {
    // Batched multi-source SSSP: one engine invocation per pool chunk fills
    // every missing tree off a single CSR sync, instead of |missing|
    // independent Dijkstra calls.
    std::vector<graph::ShortestPaths> batch =
        graph::batch_dijkstra(ctx.cost_graph, missing);
    for (std::size_t j = 0; j < missing.size(); ++j) {
      ctx.trees[missing[j]] =
          std::make_shared<const graph::ShortestPaths>(std::move(batch[j]));
    }
  }
  std::vector<std::shared_ptr<const graph::ShortestPaths>> trees;
  trees.reserve(sources.size());
  for (const graph::VertexId s : sources) trees.push_back(ctx.trees[s]);
  return trees;
}

double AuxOverlay::weight(graph::EdgeId e) const {
  if (is_virtual(e)) return virtual_weight[virtual_index(e)];
  if (std::binary_search(zero_edges.begin(), zero_edges.end(), e)) return 0.0;
  return ctx->cost_graph.weight(e);
}

graph::EdgeRecord AuxOverlay::record(graph::EdgeId e) const {
  if (is_virtual(e)) {
    const std::size_t i = virtual_index(e);
    return graph::EdgeRecord{e, virtual_source, combo[i], virtual_weight[i]};
  }
  const graph::Edge& ed = ctx->cost_graph.edge(e);
  return graph::EdgeRecord{e, ed.u, ed.v, weight(e)};
}

AuxOverlay build_aux_overlay(const WorkContext& ctx, graph::VertexId source,
                             std::span<const graph::VertexId> combo) {
  if (combo.empty()) {
    throw std::invalid_argument("build_aux_overlay: empty server combination");
  }
  NFVM_COUNTER_INC("core.appro_multi.aux_overlays");
  AuxOverlay aux;
  aux.ctx = &ctx;
  aux.num_real_edges = ctx.cost_graph.num_edges();
  aux.virtual_source = static_cast<graph::VertexId>(ctx.cost_graph.num_vertices());
  aux.combo.assign(combo.begin(), combo.end());

  aux.virtual_weight.reserve(combo.size());
  for (graph::VertexId v : combo) {
    if (!ctx.sp_source.reachable(v)) {
      throw std::invalid_argument("build_aux_overlay: server unreachable");
    }
    aux.virtual_weight.push_back(ctx.sp_source.dist[v] + ctx.server_chain_cost[v]);
  }

  // Zero-cost correction: physical edges (s_k, v) with v in the combination.
  for (const graph::Adjacency& adj : ctx.cost_graph.neighbors(source)) {
    if (std::find(combo.begin(), combo.end(), adj.neighbor) != combo.end()) {
      aux.zero_edges.push_back(adj.edge);
    }
  }
  std::sort(aux.zero_edges.begin(), aux.zero_edges.end());
  return aux;
}

PseudoMulticastTree realize_pseudo_tree(const WorkContext& ctx,
                                        const AuxOverlay& aux,
                                        const std::vector<graph::EdgeId>& tree_edges,
                                        const nfv::Request& request) {
  // Per-candidate record buffer from the request arena: realization is
  // sequential (one candidate at a time), so a scope per call reuses the
  // same warm bytes across the whole candidate walk.
  util::ArenaScope scope(*ctx.arena);
  std::span<graph::EdgeRecord> records =
      scope.arena().make_span<graph::EdgeRecord>(tree_edges.size());
  for (std::size_t i = 0; i < tree_edges.size(); ++i) {
    records[i] = aux.record(tree_edges[i]);
  }
  const graph::RootedTree rooted(aux.num_vertices(), records, aux.virtual_source);

  PseudoMulticastTree tree;
  tree.source = request.source;

  std::vector<graph::EdgeId> traversals;  // physical ids, one per traversal
  traversals.reserve(tree_edges.size());
  double cost = 0.0;
  for (graph::EdgeId e : tree_edges) {
    cost += aux.weight(e);
    if (aux.is_virtual(e)) {
      const std::size_t i = aux.virtual_index(e);
      tree.servers.push_back(aux.combo[i]);
      for (graph::EdgeId pe : graph::path_edges(ctx.sp_source, aux.combo[i])) {
        traversals.push_back(ctx.to_physical[pe]);
      }
    } else {
      traversals.push_back(ctx.to_physical[e]);
    }
  }
  tree.cost = cost;
  std::sort(tree.servers.begin(), tree.servers.end());
  tree.edge_uses = accumulate_edge_uses(std::move(traversals));

  tree.routes.reserve(request.destinations.size());
  for (graph::VertexId d : request.destinations) {
    const std::vector<graph::VertexId> aux_path =
        rooted.path_vertices(aux.virtual_source, d);
    // aux_path = [s'_k, server, ...dest]; the first hop is necessarily a
    // virtual edge because s'_k has no other incident edges.
    if (aux_path.size() < 2) {
      throw std::logic_error("realize_pseudo_tree: degenerate destination path");
    }
    const graph::VertexId server = aux_path[1];

    DestinationRoute route;
    route.destination = d;
    route.server = server;
    route.walk = graph::path_vertices(ctx.sp_source, server);
    route.server_index = route.walk.size() - 1;
    route.walk.insert(route.walk.end(), aux_path.begin() + 2, aux_path.end());
    tree.routes.push_back(std::move(route));
  }
  return tree;
}

}  // namespace nfvm::core
