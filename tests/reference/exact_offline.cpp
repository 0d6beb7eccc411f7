#include "reference/exact_offline.h"

#include <algorithm>
#include <limits>
#include <map>

#include "core/aux_graph.h"
#include "graph/tree.h"
#include "reference/appro_multi_reference.h"
#include "reference/exact_steiner.h"
#include "util/combinatorics.h"

namespace nfvm::reference {

using core::build_work_context;
using core::DestinationRoute;
using core::LinearCosts;
using core::OfflineSolution;
using core::PseudoMulticastTree;
using core::WorkContext;
using util::next_combination;

OfflineSolution exact_one_server(const topo::Topology& topo, const LinearCosts& costs,
                                 const nfv::Request& request,
                                 const ExactOfflineOptions& options) {
  if (request.destinations.size() + 1 > options.max_terminals) {
    throw std::invalid_argument("exact_one_server: too many destinations");
  }
  OfflineSolution sol;
  const WorkContext ctx = build_work_context(topo, costs, request, options.resources);
  if (!ctx.destinations_reachable) {
    sol.reject_reason = "a destination is unreachable with the demanded bandwidth";
    return sol;
  }
  if (ctx.eligible_servers.empty()) {
    sol.reject_reason = "no server can host the service chain";
    return sol;
  }

  double best_cost = std::numeric_limits<double>::infinity();
  graph::VertexId best_server = graph::kInvalidVertex;
  graph::SteinerResult best_tree;
  for (graph::VertexId v : ctx.eligible_servers) {
    ++sol.combinations_explored;
    std::vector<graph::VertexId> terminals{v};
    terminals.insert(terminals.end(), request.destinations.begin(),
                     request.destinations.end());
    graph::SteinerResult st = exact_steiner(ctx.cost_graph, terminals);
    if (!st.connected) continue;
    const double cost =
        ctx.sp_source.dist[v] + ctx.server_chain_cost[v] + st.weight;
    if (cost < best_cost) {
      best_cost = cost;
      best_server = v;
      best_tree = std::move(st);
    }
  }
  if (best_server == graph::kInvalidVertex) {
    sol.reject_reason = "no server reaches all destinations";
    return sol;
  }

  PseudoMulticastTree tree;
  tree.source = request.source;
  tree.servers = {best_server};
  tree.cost = best_cost;
  std::map<graph::EdgeId, int> mult;
  for (graph::EdgeId e : graph::path_edges(ctx.sp_source, best_server)) {
    ++mult[ctx.to_physical[e]];
  }
  for (graph::EdgeId e : best_tree.edges) ++mult[ctx.to_physical[e]];
  tree.edge_uses.assign(mult.begin(), mult.end());

  const graph::RootedTree rooted(ctx.cost_graph, best_tree.edges, best_server);
  const std::vector<graph::VertexId> to_server =
      graph::path_vertices(ctx.sp_source, best_server);
  for (graph::VertexId d : request.destinations) {
    DestinationRoute route;
    route.destination = d;
    route.server = best_server;
    route.walk = to_server;
    route.server_index = route.walk.size() - 1;
    const std::vector<graph::VertexId> down = rooted.path_vertices(best_server, d);
    route.walk.insert(route.walk.end(), down.begin() + 1, down.end());
    tree.routes.push_back(std::move(route));
  }
  sol.admitted = true;
  sol.tree = std::move(tree);
  return sol;
}

OfflineSolution exact_auxiliary(const topo::Topology& topo, const LinearCosts& costs,
                                const nfv::Request& request,
                                const ExactOfflineOptions& options) {
  if (request.destinations.size() + 1 > options.max_terminals) {
    throw std::invalid_argument("exact_auxiliary: too many destinations");
  }
  return auxiliary_sweep(topo, costs, request, options, exact_steiner);
}

OfflineSolution auxiliary_sweep(const topo::Topology& topo, const LinearCosts& costs,
                                const nfv::Request& request,
                                const ExactOfflineOptions& options,
                                AuxSteiner steiner) {
  if (options.max_servers == 0) {
    throw std::invalid_argument("auxiliary_sweep: max_servers must be >= 1");
  }
  OfflineSolution sol;
  const WorkContext ctx = build_work_context(topo, costs, request, options.resources);
  if (!ctx.destinations_reachable) {
    sol.reject_reason = "a destination is unreachable with the demanded bandwidth";
    return sol;
  }
  if (ctx.eligible_servers.empty()) {
    sol.reject_reason = "no server can host the service chain";
    return sol;
  }

  std::vector<graph::VertexId> terminals;
  terminals.push_back(static_cast<graph::VertexId>(ctx.cost_graph.num_vertices()));
  terminals.insert(terminals.end(), request.destinations.begin(),
                   request.destinations.end());

  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<graph::VertexId> best_combo;
  std::vector<graph::EdgeId> best_edges;

  const std::size_t max_k = std::min(options.max_servers, ctx.eligible_servers.size());
  for (std::size_t k = 1; k <= max_k; ++k) {
    std::vector<std::size_t> idx(k);
    for (std::size_t i = 0; i < k; ++i) idx[i] = i;
    do {
      ++sol.combinations_explored;
      std::vector<graph::VertexId> combo(k);
      for (std::size_t i = 0; i < k; ++i) combo[i] = ctx.eligible_servers[idx[i]];
      const AuxiliaryGraph aux = build_auxiliary_graph(ctx, request.source, combo);
      graph::SteinerResult st = steiner(aux.graph, terminals);
      if (!st.connected) continue;
      if (st.weight < best_cost) {
        best_cost = st.weight;
        best_combo = std::move(combo);
        best_edges = std::move(st.edges);
      }
    } while (next_combination(idx, ctx.eligible_servers.size()));
  }

  if (best_combo.empty()) {
    sol.reject_reason = "no server combination connects the source to all destinations";
    return sol;
  }
  const AuxiliaryGraph aux = build_auxiliary_graph(ctx, request.source, best_combo);
  sol.tree = realize_pseudo_tree(ctx, aux, best_edges, request);
  sol.admitted = true;
  return sol;
}

}  // namespace nfvm::reference
