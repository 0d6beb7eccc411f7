#include "graph/kmb_kernel.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace nfvm::graph {

KmbKernel& KmbKernel::thread_local_kernel() {
  thread_local KmbKernel kernel;
  return kernel;
}

std::span<const VertexId> KmbKernel::distinct_terminals(
    std::size_t num_vertices, std::span<const VertexId> a,
    std::span<const VertexId> b) {
  if (a.empty() && b.empty()) {
    throw std::invalid_argument("steiner: terminal set must be non-empty");
  }
  terms_.assign(a.begin(), a.end());
  terms_.insert(terms_.end(), b.begin(), b.end());
  for (const VertexId t : terms_) {
    if (t >= num_vertices) throw std::out_of_range("steiner: invalid terminal");
  }
  std::sort(terms_.begin(), terms_.end());
  terms_.erase(std::unique(terms_.begin(), terms_.end()), terms_.end());
  return terms_;
}

void KmbKernel::begin_union(std::size_t num_edges) {
  if (edge_mark_.size() < num_edges) edge_mark_.resize(num_edges, 0);
  if (++edge_generation_ == 0) {  // wrapped: stale marks could collide
    std::fill(edge_mark_.begin(), edge_mark_.end(), 0);
    edge_generation_ = 1;
  }
  union_num_edges_ = num_edges;
  union_ids_.clear();
}

void KmbKernel::add_edge(EdgeId e) {
  if (e >= union_num_edges_) {
    throw std::out_of_range("kmb: union edge id out of range");
  }
  if (edge_mark_[e] == edge_generation_) return;
  edge_mark_[e] = edge_generation_;
  union_ids_.push_back(e);
}

std::uint32_t KmbKernel::local_id(VertexId v) {
  if (vertex_mark_[v] == vertex_generation_) return local_of_[v];
  vertex_mark_[v] = vertex_generation_;
  const auto id = static_cast<std::uint32_t>(uf_parent_.size());
  local_of_[v] = id;
  uf_parent_.push_back(id);
  uf_size_.push_back(1);
  return id;
}

std::uint32_t KmbKernel::find(std::uint32_t x) {
  while (uf_parent_[x] != x) {
    uf_parent_[x] = uf_parent_[uf_parent_[x]];  // path halving
    x = uf_parent_[x];
  }
  return x;
}

SteinerResult KmbKernel::finish(std::size_t num_vertices,
                                std::span<const VertexId> terms) {
  const std::span<const EdgeRecord> edges = records_;
  if (edges.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("kmb: too many union edges");
  }
  // Kruskal order. The union is deduplicated, so its ids are unique tie
  // keys and one unstable sort reproduces the stable sort by weight over
  // the union in id order.
  order_.clear();
  for (std::uint32_t i = 0; i < edges.size(); ++i) {
    order_.push_back(Ranked{edges[i].weight, edges[i].id, i});
  }
  std::sort(order_.begin(), order_.end(), [](const Ranked& a, const Ranked& b) {
    if (a.weight != b.weight) return a.weight < b.weight;
    return a.id < b.id;
  });

  // Kruskal over local vertex ids: union by size with path halving.
  if (vertex_mark_.size() < num_vertices) {
    vertex_mark_.resize(num_vertices, 0);
    local_of_.resize(num_vertices);
  }
  if (++vertex_generation_ == 0) {
    std::fill(vertex_mark_.begin(), vertex_mark_.end(), 0);
    vertex_generation_ = 1;
  }
  uf_parent_.clear();
  uf_size_.clear();
  kept_.clear();
  kept_u_.clear();
  kept_v_.clear();
  for (const Ranked& r : order_) {
    const EdgeRecord& rec = edges[r.index];
    if (rec.u >= num_vertices || rec.v >= num_vertices) {
      throw std::out_of_range("kmb_finish: edge record endpoint out of range");
    }
    const std::uint32_t lu = local_id(rec.u);
    const std::uint32_t lv = local_id(rec.v);
    std::uint32_t ru = find(lu);
    std::uint32_t rv = find(lv);
    if (ru == rv) continue;
    if (uf_size_[ru] < uf_size_[rv]) std::swap(ru, rv);
    uf_parent_[rv] = ru;
    uf_size_[ru] += uf_size_[rv];
    kept_.push_back(r.index);
    kept_u_.push_back(lu);
    kept_v_.push_back(lv);
  }

  // Connectivity: every terminal must share terms[0]'s component (an
  // untouched terminal is isolated, and there are at least two).
  SteinerResult result;
  const auto local_of_terminal = [this](VertexId t) {
    return vertex_mark_[t] == vertex_generation_ ? local_of_[t] : kNoLocal;
  };
  const std::uint32_t first = local_of_terminal(terms[0]);
  if (first == kNoLocal) return result;  // connected == false
  const std::uint32_t root = find(first);
  for (const VertexId t : terms) {
    const std::uint32_t lt = local_of_terminal(t);
    if (lt == kNoLocal || find(lt) != root) return result;
  }

  // Leaf pruning: strip non-terminal leaves until none remain. Incidence is
  // a counting-sort CSR over the kept forest.
  const std::size_t num_local = uf_parent_.size();
  const std::size_t num_kept = kept_.size();
  degree_.assign(num_local, 0);
  is_terminal_.assign(num_local, 0);
  for (const VertexId t : terms) is_terminal_[local_of_[t]] = 1;
  incident_begin_.assign(num_local + 1, 0);
  for (std::size_t k = 0; k < num_kept; ++k) {
    ++degree_[kept_u_[k]];
    ++degree_[kept_v_[k]];
  }
  for (std::size_t v = 0; v < num_local; ++v) {
    incident_begin_[v + 1] = incident_begin_[v] + degree_[v];
  }
  incident_.resize(2 * num_kept);
  // Fill each vertex's slice back to front, leaving incident_begin_ intact.
  for (std::size_t k = num_kept; k-- > 0;) {
    incident_[incident_begin_[kept_u_[k]] + --degree_[kept_u_[k]]] =
        static_cast<std::uint32_t>(k);
    incident_[incident_begin_[kept_v_[k]] + --degree_[kept_v_[k]]] =
        static_cast<std::uint32_t>(k);
  }
  for (std::size_t v = 0; v < num_local; ++v) {
    degree_[v] = incident_begin_[v + 1] - incident_begin_[v];
  }
  removed_.assign(num_kept, 0);
  leaves_.clear();
  for (std::uint32_t v = 0; v < num_local; ++v) {
    if (degree_[v] == 1 && is_terminal_[v] == 0) leaves_.push_back(v);
  }
  for (std::size_t head = 0; head < leaves_.size(); ++head) {
    const std::uint32_t v = leaves_[head];
    if (degree_[v] != 1 || is_terminal_[v] != 0) continue;
    for (std::uint32_t i = incident_begin_[v]; i < incident_begin_[v + 1]; ++i) {
      const std::uint32_t k = incident_[i];
      if (removed_[k] != 0) continue;
      removed_[k] = 1;
      const std::uint32_t other = kept_u_[k] == v ? kept_v_[k] : kept_u_[k];
      --degree_[v];
      --degree_[other];
      if (degree_[other] == 1 && is_terminal_[other] == 0) leaves_.push_back(other);
      break;  // a degree-1 vertex has exactly one live incident edge
    }
  }

  // Survivors in Kruskal order, weights summed in that order.
  std::size_t survivors = 0;
  for (std::size_t k = 0; k < num_kept; ++k) survivors += removed_[k] == 0 ? 1 : 0;
  result.edges.reserve(survivors);
  for (std::size_t k = 0; k < num_kept; ++k) {
    if (removed_[k] != 0) continue;
    const EdgeRecord& rec = edges[kept_[k]];
    result.edges.push_back(rec.id);
    result.weight += rec.weight;
  }
  result.connected = true;
  return result;
}

}  // namespace nfvm::graph
