// Test-only exact minimum Steiner tree: the Dreyfus–Wagner dynamic program,
// exponential in the number of terminals. The tests check the KMB and
// Takahashi–Matsuyama approximation ratios against it, and the exact
// offline oracles (reference/exact_offline.h) build on it. Production code
// only ever builds approximate trees (graph/steiner.h).
#pragma once

#include <cstddef>
#include <span>

#include "graph/graph.h"
#include "graph/steiner.h"
#include "reference/apsp.h"

namespace nfvm::reference {

/// Exact minimum Steiner tree via Dreyfus-Wagner. Throws
/// std::invalid_argument when there are more than `kExactSteinerMaxTerminals`
/// distinct terminals (the DP is Theta(3^t n)). Builds one all-pairs
/// structure (parallel Dijkstra fan-out) and delegates to the overload below.
inline constexpr std::size_t kExactSteinerMaxTerminals = 14;
graph::SteinerResult exact_steiner(const graph::Graph& g,
                                   std::span<const graph::VertexId> terminals);

/// Dreyfus-Wagner against a caller-supplied all-pairs structure, so repeated
/// exact queries on the same graph (e.g. the K=1 optimum oracle sweeping
/// server combinations) share one APSP build. `apsp` must have been built
/// from `g` with keep_parents == true; throws std::invalid_argument when its
/// vertex count disagrees with `g`.
graph::SteinerResult exact_steiner(const graph::Graph& g,
                                   std::span<const graph::VertexId> terminals,
                                   const AllPairsShortestPaths& apsp);

}  // namespace nfvm::reference
