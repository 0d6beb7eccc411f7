#include "graph/sp_engine.h"

#include <algorithm>
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

// Bucket-queue (Dial) loop. Precondition (checked by the CSR weight
// inspection): every edge weight is an integer in [1, kMaxDialWeight].
// Invariant: while draining distance d, every live entry lies in
// [d, d + ring - 1], and bucket d % ring holds only entries whose stored
// distance is exactly d — a push during the drain of d' targets
// nd in [d' + 1, d' + ring - 1], which never wraps onto a still-undrained
// smaller distance. Draining each bucket in ascending vertex-id order
// therefore settles vertices in exactly the heap's (distance, id) order.
// A run ends only once every queued entry is drained, so each bucket is
// empty again when the next query starts.
void SpEngine::run_dial(ShortestPaths& tree, const std::uint8_t* edge_mask) {
  NFVM_OBS_ONLY(std::uint64_t edges_scanned = 0; std::uint64_t edges_relaxed = 0;)
  const std::size_t ring = static_cast<std::size_t>(view_.max_integer_weight()) + 1;
  if (buckets_.size() < ring) buckets_.resize(ring);
  double* const dist = tree.dist.data();
  VertexId* const parent = tree.parent.data();
  EdgeId* const parent_edge = tree.parent_edge.data();

  buckets_[0].push_back(tree.source);
  std::size_t pending = 1;
  std::uint64_t d = 0;
  while (pending > 0) {
    std::vector<VertexId>& bucket = buckets_[static_cast<std::size_t>(d % ring)];
    if (bucket.empty()) {
      ++d;
      continue;
    }
    // Stage and sort: every entry here has stored distance exactly d, so
    // ascending id is the heap's tie-break. Entries whose dist no longer
    // equals d were improved before being drained — stale, skip.
    bucket_scratch_.assign(bucket.begin(), bucket.end());
    bucket.clear();
    pending -= bucket_scratch_.size();
    std::sort(bucket_scratch_.begin(), bucket_scratch_.end());
    const double dd = static_cast<double>(d);
    for (VertexId u : bucket_scratch_) {
      if (dist[u] != dd) continue;  // stale entry
      for (const CsrEntry& entry : view_.out(u)) {
        if (edge_mask != nullptr && edge_mask[entry.edge] == 0) continue;
        NFVM_OBS_ONLY(++edges_scanned;)
        const double nd = dd + entry.weight;
        if (nd < dist[entry.neighbor]) {
          NFVM_OBS_ONLY(++edges_relaxed;)
          dist[entry.neighbor] = nd;
          parent[entry.neighbor] = u;
          parent_edge[entry.neighbor] = entry.edge;
          buckets_[static_cast<std::size_t>(static_cast<std::uint64_t>(nd) % ring)]
              .push_back(entry.neighbor);
          ++pending;
        }
      }
    }
    ++d;
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
  last_used_dial_ = view_.dial_eligible();
  if (last_used_dial_) {
    run_dial(tree, edge_mask);
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

std::vector<ShortestPaths> SpEngine::batch_shortest_paths(
    const Graph& g, std::span<const VertexId> sources,
    std::span<const std::uint8_t> edge_mask) {
  for (VertexId s : sources) {
    if (!g.has_vertex(s)) {
      throw std::out_of_range("dijkstra: invalid source vertex");
    }
  }
  if (!edge_mask.empty() && edge_mask.size() < g.num_edges()) {
    throw std::invalid_argument("dijkstra: edge mask smaller than edge count");
  }
  const std::uint8_t* mask = edge_mask.empty() ? nullptr : edge_mask.data();
  std::vector<ShortestPaths> out(sources.size());
  prepare(g);  // one CSR sync serves the whole batch
  for (std::size_t i = 0; i < sources.size(); ++i) {
    out[i].source = sources[i];
    compute_prepared(out[i], mask);
  }
  return out;
}

SpEngine& SpEngine::thread_local_engine() {
  thread_local SpEngine engine;
  return engine;
}

std::vector<ShortestPaths> batch_dijkstra(const Graph& g,
                                          std::span<const VertexId> sources,
                                          std::span<const std::uint8_t> edge_mask) {
  util::ThreadPool& pool = util::ThreadPool::global();
  const std::size_t chunks = std::min(sources.size(), pool.num_threads());
  if (chunks <= 1) {
    return SpEngine::thread_local_engine().batch_shortest_paths(g, sources,
                                                                edge_mask);
  }
  // Contiguous chunks, one batched engine invocation per chunk. Slot i
  // depends only on sources[i], never on the chunking, so the merged result
  // is byte-identical to the single-threaded batch.
  std::vector<ShortestPaths> out(sources.size());
  pool.parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = sources.size() * c / chunks;
    const std::size_t end = sources.size() * (c + 1) / chunks;
    std::vector<ShortestPaths> part =
        SpEngine::thread_local_engine().batch_shortest_paths(
            g, sources.subspan(begin, end - begin), edge_mask);
    for (std::size_t i = 0; i < part.size(); ++i) {
      out[begin + i] = std::move(part[i]);
    }
  });
  return out;
}

}  // namespace nfvm::graph
