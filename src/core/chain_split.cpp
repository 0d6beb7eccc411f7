#include "core/chain_split.h"

#include <algorithm>
#include <functional>
#include <map>
#include <queue>

#include "core/aux_graph.h"
#include "core/delay.h"
#include "graph/dijkstra.h"
#include "graph/steiner.h"
#include "graph/tree.h"

namespace nfvm::core {
namespace {

/// Node of the layered graph: layer * n + vertex.
using LayeredId = std::size_t;

struct LayeredStep {
  LayeredId parent = static_cast<LayeredId>(-1);
  /// Movement edge (work-graph id) or kInvalidEdge for a processing step.
  graph::EdgeId via_edge = graph::kInvalidEdge;
};

}  // namespace

ChainSplitSolution chain_split_multicast(const topo::Topology& topo,
                                         const LinearCosts& costs,
                                         const nfv::Request& request,
                                         const ChainSplitOptions& options) {
  // The working graph (links eligible for b_k, weighted c_e * b_k) and its
  // tree table. Validates the request and the cost table.
  WorkContext ctx = build_work_context(topo, costs, request, options.resources);
  const graph::Graph& work = ctx.cost_graph;
  ChainSplitSolution sol;
  const double b = request.bandwidth_mbps;
  const std::vector<nfv::NetworkFunction>& chain = request.chain.functions();
  const std::size_t m = chain.size();
  const std::size_t n = topo.num_switches();

  // Per-NF demands and per-(NF, server) processing costs.
  std::vector<double> nf_demand(m);
  for (std::size_t i = 0; i < m; ++i) {
    nf_demand[i] = nfv::compute_demand_per_100mbps(chain[i]) * (b / 100.0);
  }
  const auto can_process = [&](std::size_t i, graph::VertexId v) {
    if (!topo.is_server(v)) return false;
    if (options.resources == nullptr) return true;
    // Per-NF check; aggregated overflow across several NFs on one server is
    // caught by the final footprint check.
    return options.resources->residual_compute(v) >= nf_demand[i];
  };

  // Layered Dijkstra from (layer 0, source).
  const std::size_t num_nodes = (m + 1) * n;
  std::vector<double> dist(num_nodes, graph::kInfiniteDistance);
  std::vector<LayeredStep> step(num_nodes);
  using Item = std::pair<double, LayeredId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  const LayeredId start = request.source;  // layer 0
  dist[start] = 0.0;
  heap.emplace(0.0, start);
  while (!heap.empty()) {
    const auto [d, node] = heap.top();
    heap.pop();
    if (d > dist[node]) continue;
    const std::size_t layer = node / n;
    const auto u = static_cast<graph::VertexId>(node % n);
    for (const graph::Adjacency& adj : work.neighbors(u)) {
      const LayeredId next = layer * n + adj.neighbor;
      const double nd = d + work.edge(adj.edge).weight;
      if (nd < dist[next]) {
        dist[next] = nd;
        step[next] = LayeredStep{node, adj.edge};
        heap.emplace(nd, next);
      }
    }
    if (layer < m && can_process(layer, u)) {
      const LayeredId next = (layer + 1) * n + u;
      const double nd = d + costs.server_cost(u, nf_demand[layer]);
      if (nd < dist[next]) {
        dist[next] = nd;
        step[next] = LayeredStep{node, graph::kInvalidEdge};
        heap.emplace(nd, next);
      }
    }
  }

  // Candidates: servers v where the *last* NF can be placed; rooting the
  // multicast tree at the last processing server dominates any post-
  // processing relocation (the tree itself provides all movement). Their
  // trees and the destinations' are computed in one context_trees call,
  // and every candidate's KMB tree reads them.
  std::vector<graph::VertexId> roots;
  for (graph::VertexId v : topo.servers) {
    if (can_process(m - 1, v) && dist[(m - 1) * n + v] < graph::kInfiniteDistance) {
      roots.push_back(v);
    }
  }
  const std::size_t num_candidates = roots.size();
  roots.insert(roots.end(), request.destinations.begin(), request.destinations.end());
  if (num_candidates > 0) context_trees(ctx, roots);
  const std::function<const graph::ShortestPaths&(graph::VertexId)> table_for =
      [&ctx](graph::VertexId v) -> const graph::ShortestPaths& {
    return ctx.trees.from(v);
  };

  struct Candidate {
    double total = 0.0;
    graph::VertexId root = graph::kInvalidVertex;
    double walk_cost = 0.0;
    graph::SteinerResult steiner;
  };
  std::vector<Candidate> candidates;
  std::vector<graph::VertexId> terminals{graph::kInvalidVertex};
  terminals.insert(terminals.end(), request.destinations.begin(),
                   request.destinations.end());
  for (std::size_t i = 0; i < num_candidates; ++i) {
    const graph::VertexId v = roots[i];
    const double walk_cost =
        dist[(m - 1) * n + v] + costs.server_cost(v, nf_demand[m - 1]);
    terminals[0] = v;
    graph::SteinerResult st = graph::kmb_steiner_from_tables(work, terminals, table_for);
    if (!st.connected) continue;
    candidates.push_back(
        Candidate{walk_cost + st.weight, v, walk_cost, std::move(st)});
  }
  if (candidates.empty()) {
    sol.reject_reason = "no feasible placement walk reaches the destinations";
    return sol;
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.total < b.total;
                   });

  for (const Candidate& cand : candidates) {
    // Reconstruct the layered walk ending right after the final placement.
    std::vector<graph::VertexId> walk;           // physical vertices
    std::vector<graph::EdgeId> walk_edges;       // work-graph ids, traversal order
    std::vector<std::pair<nfv::NetworkFunction, graph::VertexId>> placements;
    {
      // The end node is (m, root) reached via the processing step.
      std::vector<LayeredId> rev;
      LayeredId node = m * n + cand.root;
      // The final processing step may not be the stored predecessor of
      // (m, root) (movement could be cheaper); force the interpretation
      // "walk to (m-1, root), then process" which cand.walk_cost priced.
      rev.push_back(node);
      node = (m - 1) * n + cand.root;
      for (;;) {
        rev.push_back(node);
        if (node == start) break;
        node = step[node].parent;
      }
      std::reverse(rev.begin(), rev.end());
      for (std::size_t i = 0; i < rev.size(); ++i) {
        const std::size_t layer = rev[i] / n;
        const auto u = static_cast<graph::VertexId>(rev[i] % n);
        if (i == 0) {
          walk.push_back(u);
          continue;
        }
        const std::size_t prev_layer = rev[i - 1] / n;
        if (layer != prev_layer) {
          placements.emplace_back(chain[prev_layer], u);  // processing step
        } else {
          walk_edges.push_back(step[rev[i]].via_edge);
          walk.push_back(u);
        }
      }
    }

    // Assemble the pseudo-multicast tree.
    PseudoMulticastTree tree;
    tree.source = request.source;
    tree.cost = cand.total;
    for (const auto& [nf, v] : placements) tree.servers.push_back(v);
    std::sort(tree.servers.begin(), tree.servers.end());
    tree.servers.erase(std::unique(tree.servers.begin(), tree.servers.end()),
                       tree.servers.end());

    std::map<graph::EdgeId, int> mult;
    for (graph::EdgeId e : walk_edges) ++mult[ctx.to_physical[e]];
    for (graph::EdgeId e : cand.steiner.edges) ++mult[ctx.to_physical[e]];
    tree.edge_uses.assign(mult.begin(), mult.end());

    const graph::RootedTree rooted(work, cand.steiner.edges, cand.root);
    for (graph::VertexId d : request.destinations) {
      DestinationRoute route;
      route.destination = d;
      route.server = cand.root;
      route.walk = walk;
      route.server_index = route.walk.size() - 1;
      const std::vector<graph::VertexId> down = rooted.path_vertices(cand.root, d);
      route.walk.insert(route.walk.end(), down.begin() + 1, down.end());
      tree.routes.push_back(std::move(route));
    }

    if (!meets_delay_bound(topo, request, tree)) continue;

    nfv::Footprint footprint;
    for (const auto& [edge, count] : tree.edge_uses) {
      footprint.bandwidth.emplace_back(edge, b * count);
    }
    for (std::size_t i = 0; i < placements.size(); ++i) {
      footprint.compute.emplace_back(placements[i].second, nf_demand[i]);
    }
    footprint.table_entries = tree.touched_switches(topo.graph);
    if (options.resources != nullptr && !options.resources->can_allocate(footprint)) {
      continue;
    }

    sol.admitted = true;
    sol.tree = std::move(tree);
    sol.footprint = std::move(footprint);
    sol.placements = std::move(placements);
    return sol;
  }

  sol.reject_reason = "every placement walk violates capacity or delay constraints";
  return sol;
}

}  // namespace nfvm::core
