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

/// KMB approximation. Steps: metric closure over terminals -> MST of the
/// closure -> expand closure edges into shortest paths -> MST of the union
/// subgraph -> prune non-terminal leaves. Duplicate terminals are allowed
/// and ignored. Throws std::out_of_range on invalid vertices and
/// std::invalid_argument when `terminals` is empty.
///
/// Guarantee: weight <= 2 (1 - 1/t) * OPT where t = #distinct terminals.
SteinerResult kmb_steiner(const Graph& g, std::span<const VertexId> terminals);

/// KMB from caller-supplied per-terminal shortest-path tables: identical to
/// kmb_steiner except that step 1 (one SSSP per distinct terminal) is
/// replaced by `table_for(t)` lookups. `table_for` must return the full
/// shortest-path tree rooted at `t` on `g` (same graph, same weights) and
/// the reference must stay valid for the duration of the call; it must not
/// itself build a Steiner tree on the calling thread (the call runs on that
/// thread's graph::KmbKernel scratch). This is the online fast path's entry
/// point: the per-request terminal trees are primed once (and cached across
/// requests) instead of being recomputed per candidate server, and the
/// result is bit-identical to kmb_steiner.
SteinerResult kmb_steiner_from_tables(
    const Graph& g, std::span<const VertexId> terminals,
    const std::function<const ShortestPaths&(VertexId)>& table_for);

/// Checks that `edges` forms a tree (acyclic, connected over touched
/// vertices) containing every terminal. Utility shared by tests and the
/// pseudo-multicast validator.
bool is_steiner_tree(const Graph& g, std::span<const EdgeId> edges,
                     std::span<const VertexId> terminals);

}  // namespace nfvm::graph
