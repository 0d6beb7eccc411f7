// Minimum spanning forests (Kruskal) over a subset of a graph's edges.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"

namespace nfvm::graph {

struct MstResult {
  /// Edges of the minimum spanning forest, in the order Kruskal accepts them.
  std::vector<EdgeId> edges;
  /// Total weight of the forest.
  double weight = 0.0;
  /// True iff the chosen edges connect every vertex `edges` touches (and
  /// there is at least one).
  bool spanning = false;
};

/// Minimum spanning forest restricted to `edges` (ids into `g`). Vertices
/// not touched by `edges` are ignored for the `spanning` flag, which instead
/// reports whether the chosen edges connect all touched vertices.
/// Deterministic: ties are broken by position in `edges`.
MstResult kruskal_mst_subset(const Graph& g, std::span<const EdgeId> edges);

}  // namespace nfvm::graph
