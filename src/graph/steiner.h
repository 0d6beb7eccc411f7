// Steiner trees.
//
// * `kmb_steiner` — the Kou–Markowsky–Berman (1981) 2(1 - 1/t)-approximation
//   used by every algorithm in the paper (Algorithm 1 step 7, Algorithm 2
//   step 8, and the Alg_One_Server / SP baselines build on the same
//   metric-closure machinery).
//
// The exact Dreyfus–Wagner oracle the tests measure these against, and the
// Takahashi–Matsuyama heuristic ablation A4 compares KMB with, live in
// tests/reference.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace nfvm::graph {

struct ShortestPaths;

struct SteinerResult {
  /// True iff all terminals lie in one connected component (a tree exists).
  bool connected = false;
  /// Edges of the Steiner tree (ids into the input graph). Empty when
  /// `connected` is false or there are fewer than two distinct terminals.
  std::vector<EdgeId> edges;
  /// Total weight of `edges`.
  double weight = 0.0;
};

/// KMB approximation. Steps: shortest-path trees from the distinct
/// terminals, computed in one graph::TreeTable (none for a single
/// terminal) -> MST of the metric closure over the terminals -> expand
/// closure edges into shortest paths -> MST of the union subgraph -> prune
/// non-terminal leaves; steps 2-5 are kmb_steiner_from_tables over that
/// table. Duplicate terminals are allowed and ignored. Throws
/// std::out_of_range on invalid vertices and std::invalid_argument when
/// `terminals` is empty, before computing any tree.
///
/// Guarantee: weight <= 2 (1 - 1/t) * OPT where t = #distinct terminals.
SteinerResult kmb_steiner(const Graph& g, std::span<const VertexId> terminals);

/// KMB from caller-supplied per-terminal shortest-path trees: steps 2-5 of
/// kmb_steiner, with each distinct terminal's tree looked up by
/// `table_for(t)`. `table_for` must return the full shortest-path tree
/// rooted at `t` on `g` (same graph, same weights) and the reference must
/// stay valid for the duration of the call; it must not itself build a
/// Steiner tree on the calling thread (the call runs on that thread's
/// graph::KmbKernel scratch). A caller that builds many trees over shared
/// terminals (Online_CP's server scan, chain splitting's candidates) looks
/// each terminal's tree up in a table it fills once, and every result is
/// bit-identical to kmb_steiner's.
SteinerResult kmb_steiner_from_tables(
    const Graph& g, std::span<const VertexId> terminals,
    const std::function<const ShortestPaths&(VertexId)>& table_for);

}  // namespace nfvm::graph
