#include "reference/kmb_reference.h"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "graph/mst.h"
#include "graph/union_find.h"

namespace nfvm::reference {
namespace {

using graph::Edge;
using graph::EdgeId;
using graph::EdgeRecord;
using graph::Graph;
using graph::MstResult;
using graph::ShortestPaths;
using graph::SteinerResult;
using graph::UnionFind;
using graph::VertexId;

std::vector<VertexId> distinct_terminals(const Graph& g,
                                         std::span<const VertexId> terminals) {
  if (terminals.empty()) {
    throw std::invalid_argument("steiner: terminal set must be non-empty");
  }
  std::vector<VertexId> distinct(terminals.begin(), terminals.end());
  for (VertexId t : distinct) {
    if (!g.has_vertex(t)) throw std::out_of_range("steiner: invalid terminal");
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  return distinct;
}

/// Removes non-terminal leaves until none remain; returns surviving edges.
std::vector<EdgeId> prune_leaves(const Graph& g, std::vector<EdgeId> edges,
                                 std::span<const VertexId> terminals) {
  std::vector<bool> is_terminal(g.num_vertices(), false);
  for (VertexId t : terminals) is_terminal[t] = true;

  std::vector<std::vector<std::size_t>> incident(g.num_vertices());
  std::vector<std::size_t> degree(g.num_vertices(), 0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& ed = g.edge(edges[i]);
    incident[ed.u].push_back(i);
    incident[ed.v].push_back(i);
    ++degree[ed.u];
    ++degree[ed.v];
  }

  std::vector<bool> edge_removed(edges.size(), false);
  std::queue<VertexId> leaves;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (degree[v] == 1 && !is_terminal[v]) leaves.push(v);
  }
  while (!leaves.empty()) {
    const VertexId v = leaves.front();
    leaves.pop();
    if (degree[v] != 1 || is_terminal[v]) continue;
    for (std::size_t idx : incident[v]) {
      if (edge_removed[idx]) continue;
      edge_removed[idx] = true;
      const Edge& ed = g.edge(edges[idx]);
      const VertexId other = ed.u == v ? ed.v : ed.u;
      --degree[v];
      --degree[other];
      if (degree[other] == 1 && !is_terminal[other]) leaves.push(other);
      break;
    }
  }

  std::vector<EdgeId> kept;
  kept.reserve(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (!edge_removed[i]) kept.push_back(edges[i]);
  }
  return kept;
}

double edges_weight(const Graph& g, std::span<const EdgeId> edges) {
  double w = 0.0;
  for (EdgeId e : edges) w += g.weight(e);
  return w;
}

}  // namespace

SteinerResult kmb_steiner_from_tables(
    const Graph& g, std::span<const VertexId> terminals,
    const std::function<const ShortestPaths&(VertexId)>& table_for) {
  const std::vector<VertexId> terms = distinct_terminals(g, terminals);
  SteinerResult result;
  if (terms.size() == 1) {
    result.connected = true;
    return result;
  }
  std::vector<const ShortestPaths*> sp(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) sp[i] = &table_for(terms[i]);
  for (std::size_t i = 1; i < terms.size(); ++i) {
    if (!sp[0]->reachable(terms[i])) return result;
  }

  const std::size_t t = terms.size();
  std::vector<std::pair<std::size_t, std::size_t>> closure_edges;
  std::vector<bool> in_tree(t, false);
  std::vector<double> best(t, graph::kInfiniteDistance);
  std::vector<std::size_t> best_from(t, 0);
  best[0] = 0.0;
  for (std::size_t step = 0; step < t; ++step) {
    std::size_t pick = t;
    for (std::size_t i = 0; i < t; ++i) {
      if (!in_tree[i] && (pick == t || best[i] < best[pick])) pick = i;
    }
    in_tree[pick] = true;
    if (pick != 0) closure_edges.emplace_back(best_from[pick], pick);
    for (std::size_t j = 0; j < t; ++j) {
      if (in_tree[j]) continue;
      const double d = sp[pick]->dist[terms[j]];
      if (d < best[j]) {
        best[j] = d;
        best_from[j] = pick;
      }
    }
  }

  std::unordered_set<EdgeId> edge_set;
  for (const auto& [i, j] : closure_edges) {
    for (EdgeId e : graph::path_edges(*sp[i], terms[j])) edge_set.insert(e);
  }
  std::vector<EdgeId> expanded(edge_set.begin(), edge_set.end());
  std::sort(expanded.begin(), expanded.end());
  MstResult sub_mst = graph::kruskal_mst_subset(g, expanded);
  result.edges = prune_leaves(g, std::move(sub_mst.edges), terms);
  result.weight = edges_weight(g, result.edges);
  result.connected = true;
  return result;
}

SteinerResult kmb_finish(const Graph& g, std::span<const EdgeId> union_edges,
                         std::span<const VertexId> terminals) {
  const std::vector<VertexId> terms = distinct_terminals(g, terminals);
  SteinerResult result;
  if (terms.size() == 1) {
    result.connected = true;
    return result;
  }
  MstResult sub_mst = graph::kruskal_mst_subset(g, union_edges);
  UnionFind uf(g.num_vertices());
  for (EdgeId e : sub_mst.edges) uf.unite(g.edge(e).u, g.edge(e).v);
  for (VertexId t : terms) {
    if (uf.find(t) != uf.find(terms[0])) return result;
  }
  result.edges = prune_leaves(g, std::move(sub_mst.edges), terms);
  result.weight = edges_weight(g, result.edges);
  result.connected = true;
  return result;
}

SteinerResult kmb_finish(std::size_t num_vertices,
                         std::span<const EdgeRecord> union_edges,
                         std::span<const VertexId> terminals) {
  if (terminals.empty()) {
    throw std::invalid_argument("steiner: terminal set must be non-empty");
  }
  std::vector<VertexId> terms(terminals.begin(), terminals.end());
  for (VertexId t : terms) {
    if (t >= num_vertices) throw std::out_of_range("steiner: invalid terminal");
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  SteinerResult result;
  if (terms.size() == 1) {
    result.connected = true;
    return result;
  }

  std::vector<std::size_t> order(union_edges.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return union_edges[a].weight < union_edges[b].weight;
  });
  UnionFind uf(num_vertices);
  std::vector<std::size_t> kept;
  kept.reserve(union_edges.size());
  for (std::size_t i : order) {
    const EdgeRecord& r = union_edges[i];
    if (r.u >= num_vertices || r.v >= num_vertices) {
      throw std::out_of_range("kmb_finish: edge record endpoint out of range");
    }
    if (uf.unite(r.u, r.v)) kept.push_back(i);
  }
  for (VertexId t : terms) {
    if (uf.find(t) != uf.find(terms[0])) return result;
  }

  std::vector<bool> is_terminal(num_vertices, false);
  for (VertexId t : terms) is_terminal[t] = true;
  std::vector<std::vector<std::size_t>> incident(num_vertices);
  std::vector<std::size_t> degree(num_vertices, 0);
  for (std::size_t k = 0; k < kept.size(); ++k) {
    const EdgeRecord& r = union_edges[kept[k]];
    incident[r.u].push_back(k);
    incident[r.v].push_back(k);
    ++degree[r.u];
    ++degree[r.v];
  }
  std::vector<bool> edge_removed(kept.size(), false);
  std::queue<VertexId> leaves;
  for (VertexId v = 0; v < num_vertices; ++v) {
    if (degree[v] == 1 && !is_terminal[v]) leaves.push(v);
  }
  while (!leaves.empty()) {
    const VertexId v = leaves.front();
    leaves.pop();
    if (degree[v] != 1 || is_terminal[v]) continue;
    for (std::size_t idx : incident[v]) {
      if (edge_removed[idx]) continue;
      edge_removed[idx] = true;
      const EdgeRecord& r = union_edges[kept[idx]];
      const VertexId other = r.u == v ? r.v : r.u;
      --degree[v];
      --degree[other];
      if (degree[other] == 1 && !is_terminal[other]) leaves.push(other);
      break;
    }
  }
  for (std::size_t k = 0; k < kept.size(); ++k) {
    if (edge_removed[k]) continue;
    const EdgeRecord& r = union_edges[kept[k]];
    result.edges.push_back(r.id);
    result.weight += r.weight;
  }
  result.connected = true;
  return result;
}

}  // namespace nfvm::reference
