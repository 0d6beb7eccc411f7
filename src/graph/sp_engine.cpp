#include "graph/sp_engine.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace nfvm::graph {

// --- SpEngine ---------------------------------------------------------------

void SpEngine::heap_update(VertexId v, double d) {
  std::size_t i = heap_pos_[v];
  if (i == kNotInHeap) {
    i = heap_.size();
    heap_.push_back(HeapItem{d, v});
  }
  const HeapItem item{d, v};
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!item_less(item, heap_[parent])) break;
    heap_place(i, heap_[parent]);
    i = parent;
  }
  heap_place(i, item);
}

SpEngine::HeapItem SpEngine::heap_pop() {
  const HeapItem top = heap_.front();
  heap_pos_[top.vertex] = kNotInHeap;
  const HeapItem last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= heap_.size()) break;
      const std::size_t end = std::min(first + 4, heap_.size());
      std::size_t best = first;
      for (std::size_t j = first + 1; j < end; ++j) {
        if (item_less(heap_[j], heap_[best])) best = j;
      }
      if (!item_less(heap_[best], last)) break;
      heap_place(i, heap_[best]);
      i = best;
    }
    heap_place(i, last);
  }
  return top;
}

void SpEngine::heap_clear() {
  for (const HeapItem& item : heap_) heap_pos_[item.vertex] = kNotInHeap;
  heap_.clear();
}

void SpEngine::prepare(const Graph& g) {
  view_.refresh(g);
  const std::size_t n = g.num_vertices();
  if (stamp_.size() < n) {
    stamp_.resize(n, 0);
    mark_.resize(n, 0);
    settled_.resize(n, 0);
    heap_pos_.resize(n, kNotInHeap);
  }
  const std::size_t words = (n + 63) / 64;
  if (seen_.size() < words) {
    seen_.resize(words, 0);
    level_.resize(words, 0);
    next_level_.resize(words, 0);
    level_words_.reserve(words);  // a level touches each word at most once
    next_level_words_.reserve(words);
  }
  if (++generation_ == 0) {  // wrapped: stamps are ambiguous, hard reset
    std::fill(stamp_.begin(), stamp_.end(), 0);
    std::fill(settled_.begin(), settled_.end(), 0);
    generation_ = 1;
  }
}

// Indexed-heap loop. Each vertex is queued at most once and its key only
// ever decreases, so the pop sequence is the (distance, id) order of the
// settled vertices — the same sequence the historical lazy-deletion heap
// produced after skipping its stale entries (tests/test_sp_repair.cpp
// compares the two).
void SpEngine::run_heap(ShortestPaths& tree, const std::uint8_t* edge_mask) {
  NFVM_OBS_ONLY(std::uint64_t edges_scanned = 0; std::uint64_t edges_relaxed = 0;)
  double* const dist = tree.dist.data();
  VertexId* const parent = tree.parent.data();
  EdgeId* const parent_edge = tree.parent_edge.data();
  while (!heap_.empty()) {
    const HeapItem top = heap_pop();
    const VertexId u = top.vertex;
    for (const CsrEntry& entry : view_.out(u)) {
      if (edge_mask != nullptr && edge_mask[entry.edge] == 0) continue;
      NFVM_OBS_ONLY(++edges_scanned;)
      const double nd = top.dist + entry.weight;
      if (nd < dist[entry.neighbor]) {
        NFVM_OBS_ONLY(++edges_relaxed;)
        dist[entry.neighbor] = nd;
        parent[entry.neighbor] = u;
        parent_edge[entry.neighbor] = entry.edge;
        heap_update(entry.neighbor, nd);
      }
    }
  }
  NFVM_COUNTER_ADD("graph.dijkstra.edges_scanned", edges_scanned);
  NFVM_COUNTER_ADD("graph.dijkstra.edges_relaxed", edges_relaxed);
}

// Level-synchronous breadth-first search. Precondition (checked by the CSR
// weight inspection): every edge weight is exactly 1.0. The heap settles
// the vertices in (distance, id) order, and with unit weights the first
// relaxation of a vertex already carries its final distance, so its parent
// is the first settled in-neighbour with an allowed edge: the smallest-id
// vertex of the previous level, through that vertex's first allowed edge
// in adjacency order. Draining each level's bitset word by word in
// ascending word index, and each word from its lowest bit, scans the
// levels in exactly that order; a vertex counts as relaxed once, when it
// is first seen, and every scanned edge is one the heap scans too. Only
// the words a level touched are drained, so a run stays O(n + m) on
// long-diameter graphs.
void SpEngine::run_bfs(ShortestPaths& tree, const std::uint8_t* edge_mask) {
  NFVM_OBS_ONLY(std::uint64_t edges_scanned = 0; std::uint64_t edges_relaxed = 0;)
  double* const dist = tree.dist.data();
  VertexId* const parent = tree.parent.data();
  EdgeId* const parent_edge = tree.parent_edge.data();
  const auto word = [](VertexId v) { return static_cast<std::uint32_t>(v >> 6); };
  const auto bit = [](VertexId v) { return std::uint64_t{1} << (v & 63); };

  std::fill_n(seen_.begin(), (view_.num_vertices() + 63) / 64, 0);
  seen_[word(tree.source)] = bit(tree.source);
  level_[word(tree.source)] = bit(tree.source);
  level_words_.assign(1, word(tree.source));
  // nd is the distance of the level being found, one past the level drained.
  for (double nd = 1.0; !level_words_.empty(); nd += 1.0) {
    std::sort(level_words_.begin(), level_words_.end());
    next_level_words_.clear();
    for (const std::uint32_t w : level_words_) {
      for (std::uint64_t bits = std::exchange(level_[w], 0); bits != 0;
           bits &= bits - 1) {
        const VertexId u =
            (VertexId{w} << 6) | static_cast<VertexId>(std::countr_zero(bits));
        for (const CsrEntry& entry : view_.out(u)) {
          if (edge_mask != nullptr && edge_mask[entry.edge] == 0) continue;
          NFVM_OBS_ONLY(++edges_scanned;)
          const VertexId v = entry.neighbor;
          if ((seen_[word(v)] & bit(v)) != 0) continue;
          NFVM_OBS_ONLY(++edges_relaxed;)
          seen_[word(v)] |= bit(v);
          dist[v] = nd;
          parent[v] = u;
          parent_edge[v] = entry.edge;
          if (next_level_[word(v)] == 0) next_level_words_.push_back(word(v));
          next_level_[word(v)] |= bit(v);
        }
      }
    }
    level_.swap(next_level_);
    level_words_.swap(next_level_words_);
  }
  NFVM_COUNTER_ADD("graph.dijkstra.edges_scanned", edges_scanned);
  NFVM_COUNTER_ADD("graph.dijkstra.edges_relaxed", edges_relaxed);
}

namespace {

/// Resets `tree` to "nothing reached" from `source` on an n-vertex graph.
void reset_tree(ShortestPaths& tree, VertexId source, std::size_t n) {
  tree.source = source;
  tree.dist.assign(n, kInfiniteDistance);
  tree.parent.assign(n, kInvalidVertex);
  tree.parent_edge.assign(n, kInvalidEdge);
}

}  // namespace

void SpEngine::compute_prepared(ShortestPaths& tree, const std::uint8_t* edge_mask) {
  reset_tree(tree, tree.source, view_.num_vertices());
  NFVM_SPAN("graph/dijkstra");
  tree.dist[tree.source] = 0.0;
  last_used_bfs_ = view_.unit_weights();
  if (last_used_bfs_) {
    run_bfs(tree, edge_mask);
    // The counter keeps the name of the bucket ring the search replaced.
    NFVM_COUNTER_INC("graph.dijkstra.dial_runs");
  } else {
    heap_update(tree.source, 0.0);
    run_heap(tree, edge_mask);
  }
  NFVM_COUNTER_INC("graph.dijkstra.runs");
}

void SpEngine::compute(const Graph& g, ShortestPaths& tree,
                       std::span<const std::uint8_t> edge_mask) {
  if (!g.has_vertex(tree.source)) {
    throw std::out_of_range("dijkstra: invalid source vertex");
  }
  if (!edge_mask.empty() && edge_mask.size() < g.num_edges()) {
    throw std::invalid_argument("dijkstra: edge mask smaller than edge count");
  }
  prepare(g);
  compute_prepared(tree, edge_mask.empty() ? nullptr : edge_mask.data());
}

ShortestPaths SpEngine::shortest_paths(const Graph& g, VertexId source) {
  ShortestPaths sp;
  sp.source = source;
  compute(g, sp, {});
  return sp;
}

SpEngine& SpEngine::thread_local_engine() {
  thread_local SpEngine engine;
  return engine;
}

// --- TreeTable ----------------------------------------------------------------

std::span<ShortestPaths* const> TreeTable::add(const Graph& g,
                                               std::span<const VertexId> roots,
                                               std::span<const std::uint8_t> edge_mask) {
  for (const VertexId r : roots) {
    if (!g.has_vertex(r)) throw std::out_of_range("dijkstra: invalid source vertex");
  }
  if (!edge_mask.empty() && edge_mask.size() < g.num_edges()) {
    throw std::invalid_argument("dijkstra: edge mask smaller than edge count");
  }
  if (tree_of_.size() < g.num_vertices()) tree_of_.resize(g.num_vertices(), nullptr);
  missing_.clear();
  for (const VertexId r : roots) {
    if (tree_of_[r] != nullptr) continue;
    if (held_ == trees_.size()) trees_.emplace_back();
    ShortestPaths& tree = trees_[held_++];
    tree.source = r;
    tree_of_[r] = &tree;
    missing_.push_back(&tree);
  }
  return missing_;
}

std::size_t TreeTable::compute(const Graph& g, std::span<const VertexId> roots,
                               std::span<const std::uint8_t> edge_mask) {
  const std::span<ShortestPaths* const> missing = add(g, roots, edge_mask);
  const auto compute_tree = [&](std::size_t k) {
    SpEngine::thread_local_engine().compute(g, *missing[k], edge_mask);
  };
  util::ThreadPool& pool = util::ThreadPool::global();
  if (pool.num_threads() > 1 && missing.size() > 1) {
    pool.parallel_for(missing.size(), compute_tree);
  } else {
    for (std::size_t k = 0; k < missing.size(); ++k) compute_tree(k);
  }
  return missing.size();
}

void TreeTable::clear() noexcept {
  for (std::size_t i = 0; i < held_; ++i) tree_of_[trees_[i].source] = nullptr;
  held_ = 0;
}

void TreeTable::throw_missing() {
  throw std::logic_error("TreeTable: no shortest-path tree from this vertex");
}

}  // namespace nfvm::graph
