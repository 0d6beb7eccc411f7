#include "core/alg_one_server.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "core/aux_graph.h"
#include "core/delay.h"
#include "core/shared_closure.h"
#include "graph/mst.h"
#include "graph/steiner.h"
#include "graph/tree.h"

namespace nfvm::core {
namespace {

// Faithful to the paper's Section VI-A description of Zhang et al. [22]:
//   1. route the traffic from the source to a candidate server v,
//   2. build the metric-closure MST over the *destinations* (each closure
//      edge is the shortest path between two destinations),
//   3. expand the MST into its subgraph in the network,
//   4. attach the server to the expanded subgraph via the shortest path to
//      its nearest destination,
//   5. pick the (server, subgraph) combination with minimum cost.
// Unlike Appro_Multi this never exploits Steiner points across the whole
// terminal set {v} ∪ D, which is exactly the baseline's weakness the paper's
// Fig. 5/6 gaps exhibit.

struct CandidatePlan {
  double cost = std::numeric_limits<double>::infinity();
  graph::VertexId server = graph::kInvalidVertex;
  /// Distinct working-graph edges of the expanded destination MST plus the
  /// server-attachment path.
  std::vector<graph::EdgeId> subgraph_edges;
};

}  // namespace

OfflineSolution alg_one_server(const topo::Topology& topo, const LinearCosts& costs,
                               const nfv::Request& request,
                               const nfv::ResourceState* resources) {
  OfflineSolution sol;
  WorkContext ctx = build_work_context(topo, costs, request, resources);
  if (!ctx.destinations_reachable) {
    sol.reject_reason = "a destination is unreachable with the demanded bandwidth";
    return sol;
  }
  if (ctx.eligible_servers.empty()) {
    sol.reject_reason = "no server can host the service chain";
    return sol;
  }

  const std::vector<graph::VertexId>& dests = request.destinations;

  // Shortest paths from every destination (shared across candidate servers):
  // computed in parallel and kept in the context's tree table.
  context_trees(ctx, dests);
  const auto sp_dest = [&](std::size_t i) -> const graph::ShortestPaths& {
    return ctx.trees.from(dests[i]);
  };
  const graph::ShortestPaths& from_source = ctx.trees.from(request.source);

  // Metric-closure MST over the destinations (Prim), server-independent.
  const std::size_t t = dests.size();
  std::vector<bool> in_tree(t, false);
  std::vector<double> best(t, std::numeric_limits<double>::infinity());
  std::vector<std::size_t> best_from(t, 0);
  best[0] = 0.0;
  std::set<graph::EdgeId> mst_expansion;
  for (std::size_t step = 0; step < t; ++step) {
    std::size_t pick = t;
    for (std::size_t i = 0; i < t; ++i) {
      if (!in_tree[i] && (pick == t || best[i] < best[pick])) pick = i;
    }
    in_tree[pick] = true;
    if (pick != 0) {
      for (graph::EdgeId e :
           graph::path_edges(sp_dest(best_from[pick]), dests[pick])) {
        mst_expansion.insert(e);
      }
    }
    for (std::size_t j = 0; j < t; ++j) {
      if (in_tree[j]) continue;
      const double d = sp_dest(pick).dist[dests[j]];
      if (d < best[j]) {
        best[j] = d;
        best_from[j] = pick;
      }
    }
  }

  // Candidate servers: attach each via its nearest destination.
  std::vector<CandidatePlan> candidates;
  for (graph::VertexId v : ctx.eligible_servers) {
    ++sol.combinations_explored;
    const std::size_t nearest = nearest_table_root(ctx.trees, dests, v);
    if (nearest == t) continue;  // no destination reaches this server

    std::set<graph::EdgeId> edges = mst_expansion;
    for (graph::EdgeId e : graph::path_edges(sp_dest(nearest), v)) edges.insert(e);

    CandidatePlan plan;
    plan.server = v;
    plan.subgraph_edges.assign(edges.begin(), edges.end());
    double subgraph_cost = 0.0;
    for (graph::EdgeId e : plan.subgraph_edges) {
      subgraph_cost += ctx.cost_graph.weight(e);
    }
    plan.cost = from_source.dist[v] + ctx.server_chain_cost[v] + subgraph_cost;
    candidates.push_back(std::move(plan));
  }

  if (candidates.empty()) {
    sol.reject_reason = "no server reaches all destinations";
    return sol;
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const CandidatePlan& a, const CandidatePlan& b) {
                     return a.cost < b.cost;
                   });

  for (const CandidatePlan& plan : candidates) {
    // The expanded subgraph can contain cycles (overlapping closure paths);
    // routing uses a spanning tree of it, while the baseline's cost charges
    // every subgraph edge (its documented inefficiency).
    graph::MstResult routing =
        graph::kruskal_mst_subset(ctx.cost_graph, plan.subgraph_edges);

    PseudoMulticastTree tree;
    tree.source = request.source;
    tree.servers = {plan.server};
    tree.cost = plan.cost;

    std::map<graph::EdgeId, int> mult;
    for (graph::EdgeId e : graph::path_edges(from_source, plan.server)) {
      ++mult[ctx.to_physical[e]];
    }
    for (graph::EdgeId e : plan.subgraph_edges) ++mult[ctx.to_physical[e]];
    tree.edge_uses.assign(mult.begin(), mult.end());

    const graph::RootedTree rooted(ctx.cost_graph, routing.edges, plan.server);
    const std::vector<graph::VertexId> to_server =
        graph::path_vertices(from_source, plan.server);
    bool routable = true;
    for (graph::VertexId d : dests) {
      if (!rooted.contains(d)) {
        routable = false;
        break;
      }
      DestinationRoute route;
      route.destination = d;
      route.server = plan.server;
      route.walk = to_server;
      route.server_index = route.walk.size() - 1;
      const std::vector<graph::VertexId> down = rooted.path_vertices(plan.server, d);
      route.walk.insert(route.walk.end(), down.begin() + 1, down.end());
      tree.routes.push_back(std::move(route));
    }
    if (!routable) continue;
    if (!meets_delay_bound(topo, request, tree)) continue;

    if (resources != nullptr &&
        !resources->can_allocate(tree.footprint(request, topo.graph))) {
      continue;
    }
    sol.admitted = true;
    sol.tree = std::move(tree);
    return sol;
  }

  sol.reject_reason = "every candidate tree violates capacity or delay constraints";
  return sol;
}

}  // namespace nfvm::core
