// Steiner trees.
//
// * `kmb_steiner` — the Kou–Markowsky–Berman (1981) 2(1 - 1/t)-approximation
//   used by every algorithm in the paper (Algorithm 1 step 7, Algorithm 2
//   step 8, and the Alg_One_Server / SP baselines build on the same
//   metric-closure machinery).
// * `exact_steiner` — the Dreyfus–Wagner dynamic program, exponential in the
//   number of terminals. Used by the test suite to check the approximation
//   ratio and by the K=1 exact optimum oracle.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace nfvm::graph {

class AllPairsShortestPaths;
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

/// Takahashi-Matsuyama (1980) path-heuristic: grow the tree from one
/// terminal, repeatedly attaching the closest unconnected terminal via a
/// shortest path (multi-source Dijkstra from the current tree). Same
/// 2(1 - 1/t) guarantee as KMB, often different (sometimes better) trees,
/// and cheaper per call: t Dijkstras but no metric-closure MST/expansion.
SteinerResult takahashi_matsuyama_steiner(const Graph& g,
                                          std::span<const VertexId> terminals);

/// Selector for algorithms that take a pluggable Steiner engine.
enum class SteinerEngine {
  kKmb,
  kTakahashiMatsuyama,
};

/// Dispatches to the selected approximation.
SteinerResult steiner_tree(const Graph& g, std::span<const VertexId> terminals,
                           SteinerEngine engine);

/// Exact minimum Steiner tree via Dreyfus-Wagner. Throws
/// std::invalid_argument when there are more than `kExactSteinerMaxTerminals`
/// distinct terminals (the DP is Theta(3^t n)). Builds one all-pairs
/// structure (parallel Dijkstra fan-out) and delegates to the overload below.
inline constexpr std::size_t kExactSteinerMaxTerminals = 14;
SteinerResult exact_steiner(const Graph& g, std::span<const VertexId> terminals);

/// Dreyfus-Wagner against a caller-supplied all-pairs structure, so repeated
/// exact queries on the same graph (e.g. the K=1 optimum oracle sweeping
/// server combinations) share one APSP build. `apsp` must have been built
/// from `g` with keep_parents == true; throws std::invalid_argument when its
/// vertex count disagrees with `g`.
SteinerResult exact_steiner(const Graph& g, std::span<const VertexId> terminals,
                            const AllPairsShortestPaths& apsp);

/// Vertex-insertion local search on top of a Steiner tree: for each vertex
/// outside the current tree, rebuild the KMB tree with that vertex forced as
/// an extra terminal (then pruned back against the real terminals); adopt
/// any improvement and repeat up to `max_rounds` passes. Never returns a
/// worse tree; costs O(max_rounds * n * KMB), so use it for quality studies
/// rather than inner loops. `current` must already be a valid result for
/// `terminals` (e.g. from kmb_steiner); throws std::invalid_argument when
/// it is disconnected.
SteinerResult improve_steiner(const Graph& g, SteinerResult current,
                              std::span<const VertexId> terminals,
                              std::size_t max_rounds = 2);

/// The final two KMB steps over a caller-built union: minimum spanning tree
/// of the union subgraph formed by `union_edges` (Kruskal by weight, ties in
/// input order), then repeated removal of non-terminal leaves. `union_edges`
/// must connect all distinct terminals; result.connected reflects whether it
/// did. Runs on the thread's graph::KmbKernel.
SteinerResult kmb_finish(const Graph& g, std::span<const EdgeId> union_edges,
                         std::span<const VertexId> terminals);

/// Record-based kmb_finish for implicit graphs (e.g. the auxiliary-graph
/// overlay): `union_edges` carries endpoints and weights directly, vertex
/// ids range over [0, num_vertices). Pipeline (stable sort by weight with
/// input-order ties, union order, leaf pruning, weight summation order) is
/// identical to the Graph overload, so results are bit-identical when the
/// records mirror a materialized graph.
SteinerResult kmb_finish(std::size_t num_vertices,
                         std::span<const EdgeRecord> union_edges,
                         std::span<const VertexId> terminals);

/// Checks that `edges` forms a tree (acyclic, connected over touched
/// vertices) containing every terminal. Utility shared by tests and the
/// pseudo-multicast validator.
bool is_steiner_tree(const Graph& g, std::span<const EdgeId> edges,
                     std::span<const VertexId> terminals);

}  // namespace nfvm::graph
