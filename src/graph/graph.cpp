#include "graph/graph.h"

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace nfvm::graph {

std::uint64_t Graph::next_uid() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Graph::Graph(std::size_t num_vertices) : adjacency_(num_vertices) {}

Graph::Graph(const Graph& other)
    : edges_(other.edges_), adjacency_(other.adjacency_), epoch_(other.epoch_) {}

Graph& Graph::operator=(const Graph& other) {
  if (this != &other) {
    edges_ = other.edges_;
    adjacency_ = other.adjacency_;
    epoch_ = other.epoch_;
    uid_ = next_uid();
  }
  return *this;
}

Graph::Graph(Graph&& other) noexcept
    : edges_(std::move(other.edges_)),
      adjacency_(std::move(other.adjacency_)),
      uid_(other.uid_),
      epoch_(other.epoch_) {
  other.edges_.clear();
  other.adjacency_.clear();
  other.uid_ = next_uid();
  other.epoch_ = 0;
}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this != &other) {
    edges_ = std::move(other.edges_);
    adjacency_ = std::move(other.adjacency_);
    uid_ = other.uid_;
    epoch_ = other.epoch_;
    other.edges_.clear();
    other.adjacency_.clear();
    other.uid_ = next_uid();
    other.epoch_ = 0;
  }
  return *this;
}

void Graph::check_vertex(VertexId v) const {
  if (!has_vertex(v)) {
    throw std::out_of_range("Graph: invalid vertex id " + std::to_string(v));
  }
}

EdgeId Graph::add_edge(VertexId u, VertexId v, double weight) {
  check_vertex(u);
  check_vertex(v);
  if (!(weight >= 0.0) || !std::isfinite(weight)) {
    throw std::invalid_argument("Graph::add_edge: weight must be finite and >= 0");
  }
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{u, v, weight});
  adjacency_[u].push_back(Adjacency{v, id});
  if (u != v) adjacency_[v].push_back(Adjacency{u, id});
  ++epoch_;
  return id;
}

const Edge& Graph::edge(EdgeId e) const {
  if (!has_edge(e)) {
    throw std::out_of_range("Graph: invalid edge id " + std::to_string(e));
  }
  return edges_[e];
}

void Graph::set_weight(EdgeId e, double weight) {
  if (!has_edge(e)) {
    throw std::out_of_range("Graph: invalid edge id " + std::to_string(e));
  }
  if (!(weight >= 0.0) || !std::isfinite(weight)) {
    throw std::invalid_argument("Graph::set_weight: weight must be finite and >= 0");
  }
  edges_[e].weight = weight;
  ++epoch_;
}

std::span<const Adjacency> Graph::neighbors(VertexId v) const {
  check_vertex(v);
  return adjacency_[v];
}

std::optional<EdgeId> Graph::find_edge(VertexId u, VertexId v) const {
  check_vertex(u);
  check_vertex(v);
  const VertexId scan = adjacency_[u].size() <= adjacency_[v].size() ? u : v;
  const VertexId want = scan == u ? v : u;
  for (const Adjacency& adj : adjacency_[scan]) {
    if (adj.neighbor == want) return adj.edge;
  }
  return std::nullopt;
}

}  // namespace nfvm::graph
