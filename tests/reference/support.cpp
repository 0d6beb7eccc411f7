#include "reference/support.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "graph/components.h"
#include "graph/kmb_kernel.h"
#include "graph/union_find.h"

namespace nfvm::reference {

bool next_combination(std::vector<std::size_t>& idx, std::size_t n) {
  const std::size_t k = idx.size();
  for (std::size_t i = k; i-- > 0;) {
    if (idx[i] + (k - i) < n) {
      ++idx[i];
      for (std::size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
      return true;
    }
  }
  return false;
}

graph::MstResult kruskal_mst(const graph::Graph& g) {
  std::vector<graph::EdgeId> all(g.num_edges());
  std::iota(all.begin(), all.end(), graph::EdgeId{0});
  graph::MstResult result = graph::kruskal_mst_subset(g, all);
  // A forest of n - 1 edges on n vertices is one spanning tree.
  result.spanning = g.num_vertices() > 0 && result.edges.size() + 1 == g.num_vertices();
  return result;
}

bool is_connected(const graph::Graph& g) {
  return graph::connected_components(g).count <= 1;
}

bool is_steiner_tree(const graph::Graph& g, std::span<const graph::EdgeId> edges,
                     std::span<const graph::VertexId> terminals) {
  const std::span<const graph::VertexId> distinct =
      graph::KmbKernel::thread_local_kernel().distinct_terminals(g.num_vertices(),
                                                                 terminals);
  const std::vector<graph::VertexId> terms(distinct.begin(), distinct.end());
  if (terms.size() == 1) return edges.empty();

  graph::UnionFind uf(g.num_vertices());
  std::vector<bool> touched(g.num_vertices(), false);
  for (graph::EdgeId e : edges) {
    if (!g.has_edge(e)) return false;
    const graph::Edge& ed = g.edge(e);
    if (!uf.unite(ed.u, ed.v)) return false;  // cycle (or self-loop)
    touched[ed.u] = true;
    touched[ed.v] = true;
  }
  for (graph::VertexId t : terms) {
    if (!touched[t]) return false;
    if (uf.find(t) != uf.find(terms[0])) return false;
  }
  // Connected over touched vertices: #touched vertices == #edges + 1.
  const auto touched_count = std::count(touched.begin(), touched.end(), true);
  return static_cast<std::size_t>(touched_count) == edges.size() + 1;
}

void validate_topology(const topo::Topology& topo) {
  if (topo.link_bandwidth.size() != topo.num_links()) {
    throw std::logic_error("topology: link_bandwidth size mismatch");
  }
  if (topo.server_compute.size() != topo.num_switches()) {
    throw std::logic_error("topology: server_compute size mismatch");
  }
  if (!topo.coords.empty() && topo.coords.size() != topo.num_switches()) {
    throw std::logic_error("topology: coords size mismatch");
  }
  if (topo.servers.empty()) {
    throw std::logic_error("topology: no servers");
  }
  if (!std::is_sorted(topo.servers.begin(), topo.servers.end())) {
    throw std::logic_error("topology: servers not sorted");
  }
  for (graph::VertexId v : topo.servers) {
    if (!topo.graph.has_vertex(v)) throw std::logic_error("topology: server id out of range");
    if (!(topo.server_compute[v] > 0)) {
      throw std::logic_error("topology: server with non-positive compute capacity");
    }
  }
  for (double b : topo.link_bandwidth) {
    if (!(b > 0)) throw std::logic_error("topology: non-positive link bandwidth");
  }
  if (topo.has_delays()) {
    if (topo.link_delay_ms.size() != topo.num_links()) {
      throw std::logic_error("topology: link_delay_ms size mismatch");
    }
    for (double d : topo.link_delay_ms) {
      if (!(d > 0)) throw std::logic_error("topology: non-positive link delay");
    }
  }
  if (topo.has_table_capacities()) {
    if (topo.switch_table_capacity.size() != topo.num_switches()) {
      throw std::logic_error("topology: switch_table_capacity size mismatch");
    }
    for (double t : topo.switch_table_capacity) {
      if (!(t >= 1)) throw std::logic_error("topology: table capacity < 1");
    }
  }
  if (!is_connected(topo.graph)) {
    throw std::logic_error("topology: graph is not connected");
  }
}

core::LinearCosts uniform_costs(const topo::Topology& topo, double link_cost,
                                double server_cost) {
  if (!(link_cost >= 0) || !(server_cost >= 0)) {
    throw std::invalid_argument("uniform_costs: costs must be non-negative");
  }
  core::LinearCosts costs;
  costs.link_unit_cost.assign(topo.num_links(), link_cost);
  costs.server_unit_cost.assign(topo.num_switches(), server_cost);
  return costs;
}

graph::ShortestPaths shortest_paths_masked(graph::SpEngine& engine, const graph::Graph& g,
                                           graph::VertexId source,
                                           std::span<const std::uint8_t> edge_mask) {
  graph::ShortestPaths sp;
  sp.source = source;
  engine.compute(g, sp, edge_mask);
  return sp;
}

double total_allocated_bandwidth(const topo::Topology& topo, const nfv::ResourceState& state) {
  double total = 0.0;
  for (graph::EdgeId e = 0; e < topo.num_links(); ++e) {
    total += topo.link_bandwidth[e] - state.residual_bandwidth(e);
  }
  return total;
}

double total_allocated_compute(const topo::Topology& topo, const nfv::ResourceState& state) {
  double total = 0.0;
  for (graph::VertexId v = 0; v < topo.num_switches(); ++v) {
    total += topo.server_compute[v] - state.residual_compute(v);
  }
  return total;
}

}  // namespace nfvm::reference
