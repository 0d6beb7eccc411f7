#include "core/pseudo_tree.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace nfvm::core {
namespace {

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

}  // namespace

std::size_t PseudoMulticastTree::total_link_traversals() const {
  std::size_t total = 0;
  for (const auto& [edge, mult] : edge_uses) total += static_cast<std::size_t>(mult);
  return total;
}

std::vector<graph::VertexId> PseudoMulticastTree::touched_switches(
    const graph::Graph& g) const {
  std::vector<graph::VertexId> touched;
  touched.reserve(1 + servers.size() + 2 * edge_uses.size());
  touched.push_back(source);
  touched.insert(touched.end(), servers.begin(), servers.end());
  for (const auto& [edge, mult] : edge_uses) {
    const graph::Edge& ed = g.edge(edge);
    touched.push_back(ed.u);
    touched.push_back(ed.v);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

nfv::Footprint PseudoMulticastTree::footprint(const nfv::Request& request,
                                              const graph::Graph& g) const {
  nfv::Footprint fp = footprint(request);
  fp.table_entries = touched_switches(g);
  return fp;
}

nfv::Footprint PseudoMulticastTree::footprint(const nfv::Request& request) const {
  nfv::Footprint fp;
  fp.bandwidth.reserve(edge_uses.size());
  for (const auto& [edge, mult] : edge_uses) {
    fp.bandwidth.emplace_back(edge, request.bandwidth_mbps * mult);
  }
  const double demand = request.compute_demand_mhz();
  fp.compute.reserve(servers.size());
  for (graph::VertexId s : servers) fp.compute.emplace_back(s, demand);
  return fp;
}

std::vector<std::pair<graph::EdgeId, int>> accumulate_edge_uses(
    std::vector<graph::EdgeId> traversals) {
  std::sort(traversals.begin(), traversals.end());
  std::vector<std::pair<graph::EdgeId, int>> uses;
  for (std::size_t i = 0; i < traversals.size();) {
    std::size_t j = i;
    while (j < traversals.size() && traversals[j] == traversals[i]) ++j;
    uses.emplace_back(traversals[i], static_cast<int>(j - i));
    i = j;
  }
  return uses;
}

void VertexMarks::reset(std::size_t num_vertices) {
  if (stamp_.size() < num_vertices) stamp_.resize(num_vertices, 0);
  if (++generation_ == 0) {  // wrapped: stale stamps could collide
    std::fill(stamp_.begin(), stamp_.end(), 0);
    generation_ = 1;
  }
}

namespace {

/// Calls `fn(e)` once for every edge of the union of the shortest paths
/// from_server.source -> d over the request's destinations. Each walk goes
/// up the parent pointers and stops at the root or at a vertex an earlier
/// walk marked, whose path to the root is in the union already.
template <typename Fn>
void for_each_union_edge(const nfv::Request& request,
                         const graph::ShortestPaths& from_server,
                         VertexMarks& marks, Fn&& fn) {
  marks.reset(from_server.parent.size());
  for (graph::VertexId d : request.destinations) {
    for (graph::VertexId x = d; x != from_server.source && marks.mark(x);
         x = from_server.parent[x]) {
      fn(from_server.parent_edge[x]);
    }
  }
}

/// Edges on the shortest path sp.source -> target (target reachable).
std::size_t hops_to(const graph::ShortestPaths& sp, graph::VertexId target) {
  std::size_t hops = 0;
  for (graph::VertexId x = target; x != sp.source; x = sp.parent[x]) ++hops;
  return hops;
}

/// Writes the path sp.source -> target (target reachable) into the slots
/// that end just before `end`, walking parent pointers back from `target`.
void write_path(const graph::ShortestPaths& sp, graph::VertexId target,
                std::vector<graph::VertexId>::iterator end) {
  for (graph::VertexId x = target;; x = sp.parent[x]) {
    *--end = x;
    if (x == sp.source) return;
  }
}

}  // namespace

std::size_t one_server_spt_traversals(const nfv::Request& request,
                                      graph::VertexId server,
                                      const graph::ShortestPaths& from_source,
                                      const graph::ShortestPaths& from_server,
                                      VertexMarks& marks) {
  std::size_t traversals = hops_to(from_source, server);
  for_each_union_edge(request, from_server, marks,
                      [&traversals](graph::EdgeId) { ++traversals; });
  return traversals;
}

PseudoMulticastTree make_one_server_spt_tree(
    const nfv::Request& request, graph::VertexId server,
    const graph::ShortestPaths& from_source, const graph::ShortestPaths& from_server,
    double cost, VertexMarks& marks) {
  if (!from_source.reachable(server)) {
    throw std::invalid_argument("make_one_server_spt_tree: server unreachable");
  }
  for (graph::VertexId d : request.destinations) {
    if (!from_server.reachable(d)) {
      throw std::invalid_argument("make_one_server_spt_tree: destination unreachable");
    }
  }

  PseudoMulticastTree tree;
  tree.source = request.source;
  tree.servers = {server};
  tree.cost = cost;

  // One traversal per source-path edge and one per union edge: a link on
  // both gets multiplicity 2.
  std::vector<graph::EdgeId> traversals;
  graph::for_each_path_edge(from_source, server,
                            [&traversals](graph::EdgeId e) { traversals.push_back(e); });
  const std::size_t hops = traversals.size();
  for_each_union_edge(request, from_server, marks,
                      [&traversals](graph::EdgeId e) { traversals.push_back(e); });
  tree.edge_uses = accumulate_edge_uses(std::move(traversals));

  tree.routes.reserve(request.destinations.size());
  for (graph::VertexId d : request.destinations) {
    DestinationRoute route;
    route.destination = d;
    route.server = server;
    route.server_index = hops;
    // source ... server, then server ... d; both writes put the server at
    // walk[hops].
    route.walk.resize(hops + hops_to(from_server, d) + 1);
    write_path(from_source, server,
               route.walk.begin() + static_cast<std::ptrdiff_t>(hops + 1));
    write_path(from_server, d, route.walk.end());
    tree.routes.push_back(std::move(route));
  }
  return tree;
}

bool validate_pseudo_tree(const graph::Graph& g, const nfv::Request& request,
                          const PseudoMulticastTree& tree, std::string* error) {
  if (tree.source != request.source) {
    return fail(error, "source mismatch");
  }
  if (!(tree.cost >= 0)) return fail(error, "negative cost");
  if (tree.servers.empty()) return fail(error, "no servers used");

  std::unordered_set<graph::VertexId> server_set(tree.servers.begin(),
                                                 tree.servers.end());
  if (server_set.size() != tree.servers.size()) {
    return fail(error, "duplicate server entries");
  }

  // Edge-use table.
  std::unordered_map<graph::EdgeId, int> uses;
  for (const auto& [edge, mult] : tree.edge_uses) {
    if (!g.has_edge(edge)) return fail(error, "edge_uses references unknown edge");
    if (mult < 1) return fail(error, "edge multiplicity < 1");
    if (!uses.emplace(edge, mult).second) {
      return fail(error, "duplicate edge in edge_uses");
    }
  }

  // One route per destination, in request order or any order but complete.
  std::set<graph::VertexId> wanted(request.destinations.begin(),
                                   request.destinations.end());
  std::set<graph::VertexId> routed;
  for (const DestinationRoute& route : tree.routes) {
    if (wanted.find(route.destination) == wanted.end()) {
      return fail(error, "route for a vertex that is not a destination");
    }
    if (!routed.insert(route.destination).second) {
      return fail(error, "duplicate route for a destination");
    }
    if (route.walk.empty() || route.walk.front() != request.source) {
      return fail(error, "route walk does not start at the source");
    }
    if (route.walk.back() != route.destination) {
      return fail(error, "route walk does not end at the destination");
    }
    if (route.server_index >= route.walk.size()) {
      return fail(error, "server_index out of range");
    }
    if (route.walk[route.server_index] != route.server) {
      return fail(error, "walk[server_index] is not the route's server");
    }
    if (server_set.find(route.server) == server_set.end()) {
      return fail(error, "route server not listed in tree.servers");
    }
    // The destination must not be reached before processing. (It may appear
    // earlier as a relay vertex only strictly before the end; the delivery
    // point is the final element, which is >= server_index by construction.)
    for (std::size_t i = 0; i + 1 < route.walk.size(); ++i) {
      const graph::VertexId a = route.walk[i];
      const graph::VertexId b = route.walk[i + 1];
      bool adjacent = false;
      for (const graph::Adjacency& adj : g.neighbors(a)) {
        if (adj.neighbor == b && uses.find(adj.edge) != uses.end()) {
          adjacent = true;
          break;
        }
      }
      if (!adjacent) {
        return fail(error,
                    "route walk uses a link that is absent from edge_uses or "
                    "not in the graph");
      }
    }
  }
  if (routed != wanted) return fail(error, "some destination has no route");
  return true;
}

}  // namespace nfvm::core
