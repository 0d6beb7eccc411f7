#include "reference/kmb_reference.h"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "graph/mst.h"

namespace nfvm::reference {
namespace {

using graph::Edge;
using graph::EdgeId;
using graph::Graph;
using graph::MstResult;
using graph::ShortestPaths;
using graph::SteinerResult;
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

}  // namespace nfvm::reference
