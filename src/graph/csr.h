// Immutable, cache-friendly flattened adjacency (CSR) over a Graph.
//
// Graph stores adjacency as a per-vertex vector of {neighbor, edge} pairs;
// every weight lookup then chases edges_[e] — a second cache line per
// scanned edge. CsrView packs the whole adjacency into one offsets array
// plus one contiguous array of {neighbor, edge, weight} triples, so a
// Dijkstra relaxation scan is a single linear sweep. Entry order within a
// vertex matches Graph::neighbors (insertion order), so algorithms that
// tie-break on scan order behave identically on either representation.
//
// A view records the (uid, epoch) of the graph it was built from;
// `matches()` detects both mutation (epoch bump from add_edge / set_weight)
// and rebinding to a different graph object (uid change).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace nfvm::graph {

/// One packed adjacency entry: neighbor reached, edge used, edge weight.
struct CsrEntry {
  VertexId neighbor = kInvalidVertex;
  EdgeId edge = kInvalidEdge;
  double weight = 0.0;
};

class CsrView {
 public:
  CsrView() = default;
  explicit CsrView(const Graph& g) { rebuild(g); }

  /// Rebuilds the packed adjacency from `g` unconditionally.
  void rebuild(const Graph& g);

  /// True when this view was built from `g` at its current epoch.
  bool matches(const Graph& g) const noexcept {
    return built_ && uid_ == g.uid() && epoch_ == g.epoch();
  }

  /// Rebuilds only when stale; returns true when a rebuild happened.
  bool refresh(const Graph& g) {
    if (matches(g)) return false;
    rebuild(g);
    return true;
  }

  std::size_t num_vertices() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Packed entries of all vertices: one per endpoint of each edge, one
  /// for a self-loop.
  std::size_t num_entries() const noexcept { return entries_.size(); }

  /// Packed out-entries of `v`, in Graph::neighbors order. `v` must be a
  /// valid vertex of the source graph (unchecked: hot path).
  std::span<const CsrEntry> out(VertexId v) const noexcept {
    return {entries_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// True when every edge weight equals 1.0 — the precondition for the
  /// engine's breadth-first search, which then settles vertices in the
  /// heap's (distance, id) order. Recorded once per rebuild, so the
  /// engine's per-query check is one load.
  bool unit_weights() const noexcept { return unit_weights_; }

 private:
  bool built_ = false;
  std::uint64_t uid_ = 0;
  std::uint64_t epoch_ = 0;
  bool unit_weights_ = false;
  std::vector<std::size_t> offsets_;  // size num_vertices + 1
  std::vector<CsrEntry> entries_;
};

}  // namespace nfvm::graph
