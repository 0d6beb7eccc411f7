#include "graph/tree.h"

#include <algorithm>
#include <stdexcept>

#include "util/arena.h"

namespace nfvm::graph {

RootedTree::RootedTree(const Graph& g, std::span<const EdgeId> tree_edges,
                       VertexId root) {
  if (!g.has_vertex(root)) throw std::out_of_range("RootedTree: invalid root");
  util::ArenaScope scope(util::Arena::thread_local_arena());
  std::span<EdgeRecord> records =
      scope.arena().make_span<EdgeRecord>(tree_edges.size());
  for (std::size_t i = 0; i < tree_edges.size(); ++i) {
    const Edge& ed = g.edge(tree_edges[i]);
    records[i] = EdgeRecord{tree_edges[i], ed.u, ed.v, ed.weight};
  }
  init(g.num_vertices(), records, root);
}

RootedTree::RootedTree(std::size_t num_vertices,
                       std::span<const EdgeRecord> tree_edges, VertexId root) {
  if (root >= num_vertices) throw std::out_of_range("RootedTree: invalid root");
  init(num_vertices, tree_edges, root);
}

void RootedTree::init(std::size_t n, std::span<const EdgeRecord> tree_edges,
                      VertexId root) {
  root_ = root;
  parent_.assign(n, kInvalidVertex);
  parent_edge_.assign(n, kInvalidEdge);
  depth_.assign(n, 0);
  dist_.assign(n, 0.0);
  present_.assign(n, false);

  // Adjacency restricted to tree edges, CSR-packed via counting sort into
  // arena scratch: two spans instead of n vectors, discarded on return.
  struct Arc {
    VertexId neighbor;
    EdgeId edge;
    double weight;
  };
  util::ArenaScope scope(util::Arena::thread_local_arena());
  std::span<std::size_t> offsets = scope.arena().make_span<std::size_t>(n + 1);
  std::fill(offsets.begin(), offsets.end(), std::size_t{0});
  for (const EdgeRecord& r : tree_edges) {
    if (r.u >= n || r.v >= n) {
      throw std::out_of_range("RootedTree: edge endpoint out of range");
    }
    if (r.u == r.v) throw std::invalid_argument("RootedTree: self-loop in tree edges");
    ++offsets[r.u + 1];
    ++offsets[r.v + 1];
  }
  for (std::size_t v = 1; v <= n; ++v) offsets[v] += offsets[v - 1];
  std::span<Arc> arcs = scope.arena().make_span<Arc>(2 * tree_edges.size());
  {
    // fill[v] walks v's slice; arcs end up grouped per vertex, and within a
    // vertex in input order — the same order the per-vertex vectors had.
    std::span<std::size_t> fill = scope.arena().make_span<std::size_t>(n);
    std::copy(offsets.begin(), offsets.end() - 1, fill.begin());
    for (const EdgeRecord& r : tree_edges) {
      arcs[fill[r.u]++] = Arc{r.v, r.id, r.weight};
      arcs[fill[r.v]++] = Arc{r.u, r.id, r.weight};
    }
  }

  // BFS orientation from the root; order_ doubles as the queue (the scan
  // index chases the push index, visiting in exactly std::queue order).
  order_.clear();
  order_.reserve(tree_edges.size() + 1);
  present_[root] = true;
  order_.push_back(root);
  for (std::size_t head = 0; head < order_.size(); ++head) {
    const VertexId u = order_[head];
    for (std::size_t a = offsets[u]; a < offsets[u + 1]; ++a) {
      const Arc& arc = arcs[a];
      if (arc.edge == parent_edge_[u]) continue;
      if (present_[arc.neighbor]) {
        throw std::invalid_argument("RootedTree: edges contain a cycle");
      }
      present_[arc.neighbor] = true;
      parent_[arc.neighbor] = u;
      parent_edge_[arc.neighbor] = arc.edge;
      depth_[arc.neighbor] = depth_[u] + 1;
      dist_[arc.neighbor] = dist_[u] + arc.weight;
      order_.push_back(arc.neighbor);
    }
  }
  // Edges touching the root's component but unused would indicate a cycle;
  // detected above. Edges fully outside the component are allowed (forest).

  // Binary lifting table, flat (one allocation, stride n).
  std::size_t max_depth = 0;
  for (VertexId v : order_) max_depth = std::max(max_depth, depth_[v]);
  levels_ = 1;
  while ((std::size_t{1} << levels_) <= std::max<std::size_t>(max_depth, 1)) ++levels_;
  up_.assign(levels_ * n, kInvalidVertex);
  std::copy(parent_.begin(), parent_.end(), up_.begin());
  for (std::size_t k = 1; k < levels_; ++k) {
    for (VertexId v : order_) {
      const VertexId mid = up_[(k - 1) * n + v];
      up_[k * n + v] =
          mid == kInvalidVertex ? kInvalidVertex : up_[(k - 1) * n + mid];
    }
  }
}

void RootedTree::check_present(VertexId v) const {
  if (v >= present_.size() || !present_[v]) {
    throw std::out_of_range("RootedTree: vertex not in the rooted tree");
  }
}

bool RootedTree::contains(VertexId v) const {
  return v < present_.size() && present_[v];
}

VertexId RootedTree::lca(VertexId a, VertexId b) const {
  check_present(a);
  check_present(b);
  const std::size_t n = present_.size();
  if (depth_[a] < depth_[b]) std::swap(a, b);
  std::size_t diff = depth_[a] - depth_[b];
  for (std::size_t k = 0; diff != 0; ++k, diff >>= 1) {
    if (diff & 1) a = up_[k * n + a];
  }
  if (a == b) return a;
  for (std::size_t k = levels_; k-- > 0;) {
    if (up_[k * n + a] != up_[k * n + b]) {
      a = up_[k * n + a];
      b = up_[k * n + b];
    }
  }
  return parent_[a];
}

VertexId RootedTree::lca(std::span<const VertexId> vertices) const {
  if (vertices.empty()) throw std::invalid_argument("RootedTree::lca: empty span");
  VertexId acc = vertices.front();
  for (std::size_t i = 1; i < vertices.size(); ++i) acc = lca(acc, vertices[i]);
  return acc;
}

std::vector<VertexId> RootedTree::path_vertices(VertexId a, VertexId b) const {
  const VertexId meet = lca(a, b);
  std::vector<VertexId> up_part;
  for (VertexId v = a; v != meet; v = parent_[v]) up_part.push_back(v);
  up_part.push_back(meet);
  std::vector<VertexId> down_part;
  for (VertexId v = b; v != meet; v = parent_[v]) down_part.push_back(v);
  std::reverse(down_part.begin(), down_part.end());
  up_part.insert(up_part.end(), down_part.begin(), down_part.end());
  return up_part;
}

std::vector<EdgeId> RootedTree::path_edges(VertexId a, VertexId b) const {
  const VertexId meet = lca(a, b);
  std::vector<EdgeId> edges;
  for (VertexId v = a; v != meet; v = parent_[v]) edges.push_back(parent_edge_[v]);
  std::vector<EdgeId> down;
  for (VertexId v = b; v != meet; v = parent_[v]) down.push_back(parent_edge_[v]);
  edges.insert(edges.end(), down.rbegin(), down.rend());
  return edges;
}

double RootedTree::path_weight(VertexId a, VertexId b) const {
  const VertexId meet = lca(a, b);
  return dist_[a] + dist_[b] - 2.0 * dist_[meet];
}

}  // namespace nfvm::graph
