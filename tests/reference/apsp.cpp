#include "reference/apsp.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace nfvm::reference {

using graph::EdgeId;
using graph::Graph;
using graph::kInfiniteDistance;
using graph::ShortestPaths;
using graph::VertexId;

AllPairsShortestPaths::AllPairsShortestPaths(const Graph& g, bool keep_parents)
    : n_(g.num_vertices()) {
  NFVM_SPAN("graph/apsp_build");
  NFVM_COUNTER_INC("graph.apsp.builds");
  dist_.resize(n_ * n_, kInfiniteDistance);
  if (keep_parents) per_source_.resize(n_);
  // Each source writes only its own row/slot, so the fan-out is
  // deterministic regardless of thread count.
  util::ThreadPool::global().parallel_for(n_, [&](std::size_t s) {
    ShortestPaths sp = graph::dijkstra(g, static_cast<VertexId>(s));
    std::copy(sp.dist.begin(), sp.dist.end(), dist_.begin() + static_cast<long>(s * n_));
    if (keep_parents) per_source_[s] = std::move(sp);
  });
}

void AllPairsShortestPaths::check(VertexId v) const {
  if (v >= n_) throw std::out_of_range("AllPairsShortestPaths: bad vertex id");
}

double AllPairsShortestPaths::distance(VertexId u, VertexId v) const {
  check(u);
  check(v);
  return dist_[static_cast<std::size_t>(u) * n_ + v];
}

std::vector<VertexId> AllPairsShortestPaths::path(VertexId u, VertexId v) const {
  check(u);
  check(v);
  if (per_source_.empty()) {
    throw std::logic_error("AllPairsShortestPaths: built without keep_parents");
  }
  return graph::path_vertices(per_source_[u], v);
}

std::vector<EdgeId> AllPairsShortestPaths::path_edges_between(VertexId u,
                                                              VertexId v) const {
  check(u);
  check(v);
  if (per_source_.empty()) {
    throw std::logic_error("AllPairsShortestPaths: built without keep_parents");
  }
  return graph::path_edges(per_source_[u], v);
}

const ShortestPaths& AllPairsShortestPaths::source_tree(VertexId u) const {
  check(u);
  if (per_source_.empty()) {
    throw std::logic_error("AllPairsShortestPaths: built without keep_parents");
  }
  return per_source_[u];
}

double AllPairsShortestPaths::diameter() const {
  double best = 0.0;
  for (double d : dist_) {
    if (d < kInfiniteDistance) best = std::max(best, d);
  }
  return best;
}

bool AllPairsShortestPaths::connected() const {
  return std::all_of(dist_.begin(), dist_.end(),
                     [](double d) { return d < kInfiniteDistance; });
}

}  // namespace nfvm::reference
