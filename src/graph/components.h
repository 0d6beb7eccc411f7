// Connected components.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace nfvm::graph {

struct Components {
  /// component[v] = dense component index in [0, count).
  std::vector<std::size_t> component;
  std::size_t count = 0;

  bool same_component(VertexId a, VertexId b) const {
    return component.at(a) == component.at(b);
  }
};

/// Labels connected components via BFS.
Components connected_components(const Graph& g);

}  // namespace nfvm::graph
