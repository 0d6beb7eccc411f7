// Bridges and articulation points (Tarjan lowlink DFS).
//
// A bridge is a link whose removal disconnects its component; an
// articulation point is a switch with that property. Both identify single
// points of failure: a multicast tree crossing a bridge cannot have a
// link-disjoint backup (core/backup.h), and an articulation-point switch
// cannot be protected at all.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace nfvm::graph {

struct CutAnalysis {
  /// Edge ids whose removal disconnects their component. Parallel edges are
  /// never bridges (the twin keeps the endpoints connected).
  std::vector<EdgeId> bridges;
  /// Vertices whose removal disconnects their component.
  std::vector<VertexId> articulation_points;
};

/// Runs the analysis over every component. O(n + m).
CutAnalysis find_cut_elements(const Graph& g);

}  // namespace nfvm::graph
