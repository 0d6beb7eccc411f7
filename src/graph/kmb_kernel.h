// The KMB finishing kernel: steps 2-5 of Kou-Markowsky-Berman (MST of the
// terminal metric closure, union of the expanded closure paths, MST of the
// union, non-terminal leaf pruning) on per-thread scratch reused across
// calls.
//
// Every KMB tree in the library is finished here: kmb_steiner and
// kmb_steiner_from_tables (Online_CP's candidate scan), both kmb_finish
// overloads and core::SharedComboSolver (Appro_Multi's combination
// evaluation). The test-only Dreyfus–Wagner oracle in tests/reference also
// cleans up its reconstructed union here. Per-call work is sized by the
// union (tens of edges), not by |V|: path edges are deduplicated with
// generation-stamped marks, and Kruskal and the leaf pruning run over local
// vertex ids handed out in first-touch order. Once the scratch has grown to
// a graph's size, a call allocates only the returned edge vector.
//
// Exactness (docs/performance.md, "The KMB finishing kernel"):
//   * Kruskal's accept/reject answers depend only on the edge order and on
//     "same component?" answers, and neither depends on vertex numbering.
//   * Sorting (weight, tie) pairs with unique tie keys (input position, or
//     edge id for a deduplicated union) yields exactly the permutation a
//     stable sort by weight gives over that input order.
//   * Leaf pruning leaves a unique set whatever the queue order — the
//     minimal subforest of the MST forest spanning the terminals — listed
//     in Kruskal order and summed in that order.
// Results are therefore bit-identical to the node-based-set +
// kruskal_mst_subset + leaf-pruning pipeline this replaced, which the tests
// keep as the reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/dijkstra.h"
#include "graph/graph.h"
#include "graph/steiner.h"

namespace nfvm::graph {

class KmbKernel {
 public:
  /// This thread's kernel. Not reentrant: one KMB computation runs to its
  /// end (or throws) before the next starts on the same thread.
  static KmbKernel& thread_local_kernel();

  /// Sorted, deduplicated terminals drawn from `a` and `b`, held in scratch
  /// until the next call. Throws std::invalid_argument when both are empty
  /// and std::out_of_range when a terminal is >= num_vertices.
  std::span<const VertexId> distinct_terminals(std::size_t num_vertices,
                                               std::span<const VertexId> a,
                                               std::span<const VertexId> b = {});

  /// Step 2: Prim over a t-terminal metric closure from terminal 0, where
  /// `dist(i, j)` is the closure distance between terminal indices i and j
  /// (queried with i the newly attached terminal). First-minimum picks.
  /// Returns false when some terminal is infinitely far from the rest;
  /// otherwise closure_edges() holds the tree as (from, to) index pairs in
  /// attachment order.
  template <typename Dist>
  bool closure_mst(std::size_t t, Dist&& dist);
  std::span<const std::pair<std::size_t, std::size_t>> closure_edges() const {
    return closure_edges_;
  }

  /// Step 3: starts an empty union over edge ids [0, num_edges).
  void begin_union(std::size_t num_edges);
  /// Adds `e` to the union unless it is already there. Throws
  /// std::out_of_range when e >= num_edges.
  void add_edge(EdgeId e);
  /// Adds every edge of sp's tree path to `target`, with path_edges'
  /// semantics (std::out_of_range for a bad target, nothing when
  /// unreachable).
  void add_path(const ShortestPaths& sp, VertexId target) {
    for_each_path_edge(sp, target, [this](EdgeId e) { add_edge(e); });
  }

  /// Steps 4-5 over the union: `record(e)` resolves a union edge id to its
  /// endpoints and weight in a graph of `num_vertices` vertices; Kruskal
  /// takes edges by (weight, id). `terms` must be sorted and distinct with
  /// at least two entries.
  template <typename RecordFn>
  SteinerResult finish_union(std::size_t num_vertices,
                             std::span<const VertexId> terms, RecordFn&& record);

  /// Steps 4-5 over caller-supplied graph edges (duplicates allowed), taken
  /// by (weight, input position). Throws std::out_of_range for an invalid
  /// edge id.
  SteinerResult finish_edges(const Graph& g, std::span<const EdgeId> edges,
                             std::span<const VertexId> terms);

  /// Steps 4-5 over caller-supplied records, taken by (weight, input
  /// position). Throws std::out_of_range when a record endpoint is
  /// >= num_vertices.
  SteinerResult finish_records(std::size_t num_vertices,
                               std::span<const EdgeRecord> edges,
                               std::span<const VertexId> terms) {
    return finish(num_vertices, edges, terms, /*tie_by_id=*/false);
  }

 private:
  /// One Kruskal candidate: the sort key and the record it came from.
  struct Ranked {
    double weight;
    std::uint32_t tie;
    std::uint32_t index;
  };

  SteinerResult finish(std::size_t num_vertices, std::span<const EdgeRecord> edges,
                       std::span<const VertexId> terms, bool tie_by_id);
  /// Local id of global vertex `v`, assigning the next one on first touch.
  std::uint32_t local_id(VertexId v);
  std::uint32_t find(std::uint32_t x);

  static constexpr std::uint32_t kNoLocal = static_cast<std::uint32_t>(-1);

  // Terminals (distinct_terminals).
  std::vector<VertexId> terms_;
  // Closure Prim (closure_mst).
  std::vector<char> in_tree_;
  std::vector<double> best_;
  std::vector<std::size_t> best_from_;
  std::vector<std::pair<std::size_t, std::size_t>> closure_edges_;
  // Union (begin_union / add_edge): ids in insertion order, generation marks.
  std::vector<std::uint32_t> edge_mark_;
  std::uint32_t edge_generation_ = 0;
  std::size_t union_num_edges_ = 0;
  std::vector<EdgeId> union_ids_;
  // Records handed to finish() by finish_union / finish_edges. Never part
  // of finish()'s own scratch below, so the input cannot alias it.
  std::vector<EdgeRecord> records_;
  // finish(): Kruskal order, local vertex ids, union-find, kept forest.
  std::vector<Ranked> order_;
  std::vector<std::uint32_t> vertex_mark_;
  std::vector<std::uint32_t> local_of_;
  std::uint32_t vertex_generation_ = 0;
  std::vector<std::uint32_t> uf_parent_;
  std::vector<std::uint32_t> uf_size_;
  std::vector<std::uint32_t> kept_;
  std::vector<std::uint32_t> kept_u_;
  std::vector<std::uint32_t> kept_v_;
  // finish(): leaf pruning over the kept forest.
  std::vector<std::uint32_t> degree_;
  std::vector<char> is_terminal_;
  std::vector<std::uint32_t> incident_begin_;
  std::vector<std::uint32_t> incident_;
  std::vector<char> removed_;
  std::vector<std::uint32_t> leaves_;
};

template <typename Dist>
bool KmbKernel::closure_mst(std::size_t t, Dist&& dist) {
  in_tree_.assign(t, 0);
  best_.assign(t, kInfiniteDistance);
  best_from_.assign(t, 0);
  closure_edges_.clear();
  best_[0] = 0.0;
  for (std::size_t step = 0; step < t; ++step) {
    std::size_t pick = t;
    for (std::size_t i = 0; i < t; ++i) {
      if (in_tree_[i] == 0 && (pick == t || best_[i] < best_[pick])) pick = i;
    }
    if (best_[pick] >= kInfiniteDistance) return false;
    in_tree_[pick] = 1;
    if (pick != 0) closure_edges_.emplace_back(best_from_[pick], pick);
    for (std::size_t j = 0; j < t; ++j) {
      if (in_tree_[j] != 0) continue;
      const double d = dist(pick, j);
      if (d < best_[j]) {
        best_[j] = d;
        best_from_[j] = pick;
      }
    }
  }
  return true;
}

template <typename RecordFn>
SteinerResult KmbKernel::finish_union(std::size_t num_vertices,
                                      std::span<const VertexId> terms,
                                      RecordFn&& record) {
  records_.clear();
  for (const EdgeId e : union_ids_) records_.push_back(record(e));
  return finish(num_vertices, records_, terms, /*tie_by_id=*/true);
}

}  // namespace nfvm::graph
