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
    target_stamp_.resize(n, 0);
    mark_.resize(n, 0);
    settled_.resize(n, 0);
    heap_pos_.resize(n, kNotInHeap);
    dist_.resize(n);
    parent_.resize(n);
    parent_edge_.resize(n);
  }
  if (++generation_ == 0) {  // wrapped: stamps are ambiguous, hard reset
    std::fill(stamp_.begin(), stamp_.end(), 0);
    std::fill(settled_.begin(), settled_.end(), 0);
    std::fill(bucket_stamp_.begin(), bucket_stamp_.end(), 0);
    for (std::vector<VertexId>& bucket : buckets_) bucket.clear();
    generation_ = 1;
  }
  heap_clear();
}

void SpEngine::touch(VertexId v) {
  if (stamp_[v] == generation_) return;
  stamp_[v] = generation_;
  dist_[v] = kInfiniteDistance;
  parent_[v] = kInvalidVertex;
  parent_edge_[v] = kInvalidEdge;
}

template <bool kStamped>
void SpEngine::run(Labels out, std::span<const VertexId> seeds,
                   const std::uint8_t* edge_mask, std::size_t targets_remaining) {
  NFVM_SPAN("graph/dijkstra");
  last_settled_target_ = kInvalidVertex;
  last_used_dial_ = view_.dial_eligible();
  for (VertexId s : seeds) {
    if constexpr (kStamped) touch(s);
    out.dist[s] = 0.0;
  }
  if (last_used_dial_) {
    run_dial<kStamped>(out, seeds, edge_mask, targets_remaining);
    NFVM_COUNTER_INC("graph.dijkstra.dial_runs");
  } else {
    for (VertexId s : seeds) heap_update(s, 0.0);
    run_heap<kStamped>(out, edge_mask, targets_remaining);
  }
  NFVM_COUNTER_INC("graph.dijkstra.runs");
}

// Indexed-heap loop. Each vertex is queued at most once and its key only
// ever decreases, so the pop sequence is the (distance, id) order of the
// settled vertices — the same sequence the historical lazy-deletion heap
// produced after skipping its stale entries (tests/test_sp_repair.cpp
// compares the two).
template <bool kStamped>
void SpEngine::run_heap(Labels out, const std::uint8_t* edge_mask,
                        std::size_t targets_remaining) {
  NFVM_OBS_ONLY(std::uint64_t edges_scanned = 0; std::uint64_t edges_relaxed = 0;)
  while (!heap_.empty()) {
    const HeapItem top = heap_pop();
    const VertexId u = top.vertex;
    if (targets_remaining > 0 && target_stamp_[u] == target_generation_) {
      target_stamp_[u] = 0;  // settled: count each distinct target once
      last_settled_target_ = u;
      if (--targets_remaining == 0) break;
    }
    for (const CsrEntry& entry : view_.out(u)) {
      if (edge_mask != nullptr && edge_mask[entry.edge] == 0) continue;
      NFVM_OBS_ONLY(++edges_scanned;)
      const double nd = top.dist + entry.weight;
      if constexpr (kStamped) touch(entry.neighbor);
      if (nd < out.dist[entry.neighbor]) {
        NFVM_OBS_ONLY(++edges_relaxed;)
        out.dist[entry.neighbor] = nd;
        out.parent[entry.neighbor] = u;
        out.parent_edge[entry.neighbor] = entry.edge;
        heap_update(entry.neighbor, nd);
      }
    }
  }
  heap_clear();  // leftovers of an early exit
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
template <bool kStamped>
void SpEngine::run_dial(Labels out, std::span<const VertexId> seeds,
                        const std::uint8_t* edge_mask,
                        std::size_t targets_remaining) {
  NFVM_OBS_ONLY(std::uint64_t edges_scanned = 0; std::uint64_t edges_relaxed = 0;)
  const std::size_t ring = static_cast<std::size_t>(view_.max_integer_weight()) + 1;
  if (buckets_.size() < ring) {
    buckets_.resize(ring);
    bucket_stamp_.resize(ring, 0);
  }
  const auto bucket_at = [&](std::size_t slot) -> std::vector<VertexId>& {
    std::vector<VertexId>& bucket = buckets_[slot];
    if (bucket_stamp_[slot] != generation_) {  // stale from an earlier query
      bucket.clear();
      bucket_stamp_[slot] = generation_;
    }
    return bucket;
  };

  std::size_t pending = seeds.size();
  {
    std::vector<VertexId>& zero = bucket_at(0);
    zero.insert(zero.end(), seeds.begin(), seeds.end());
  }

  std::uint64_t d = 0;
  while (pending > 0) {
    const std::size_t slot = static_cast<std::size_t>(d % ring);
    std::vector<VertexId>& bucket = bucket_at(slot);
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
      if (out.dist[u] != dd) continue;  // stale entry
      if (targets_remaining > 0 && target_stamp_[u] == target_generation_) {
        target_stamp_[u] = 0;
        last_settled_target_ = u;
        if (--targets_remaining == 0) {
          // Leftover ring entries are abandoned; their stamps go stale at
          // the next generation bump, so no cleanup sweep is needed.
          NFVM_COUNTER_ADD("graph.dijkstra.edges_scanned", edges_scanned);
          NFVM_COUNTER_ADD("graph.dijkstra.edges_relaxed", edges_relaxed);
          return;
        }
      }
      for (const CsrEntry& entry : view_.out(u)) {
        if (edge_mask != nullptr && edge_mask[entry.edge] == 0) continue;
        NFVM_OBS_ONLY(++edges_scanned;)
        const double nd = dd + entry.weight;
        if constexpr (kStamped) touch(entry.neighbor);
        if (nd < out.dist[entry.neighbor]) {
          NFVM_OBS_ONLY(++edges_relaxed;)
          out.dist[entry.neighbor] = nd;
          out.parent[entry.neighbor] = u;
          out.parent_edge[entry.neighbor] = entry.edge;
          bucket_at(static_cast<std::size_t>(static_cast<std::uint64_t>(nd) % ring))
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
  const VertexId source = tree.source;
  reset_tree(tree, source, view_.num_vertices());
  run<false>({tree.dist.data(), tree.parent.data(), tree.parent_edge.data()},
             {&source, 1}, edge_mask, 0);
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

ShortestPaths SpEngine::shortest_paths_masked(
    const Graph& g, VertexId source, std::span<const std::uint8_t> edge_mask) {
  ShortestPaths sp;
  sp.source = source;
  compute(g, sp, edge_mask);
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
  for (std::size_t i = 0; i < sources.size(); ++i) {
    // prepare() after the first source is two loads (view match) plus a
    // generation bump, so the whole batch shares one CSR sync and heap.
    prepare(g);
    out[i].source = sources[i];
    compute_prepared(out[i], mask);
  }
  return out;
}

double SpEngine::shortest_distance(const Graph& g, VertexId from, VertexId to) {
  if (!g.has_vertex(from)) {
    throw std::out_of_range("shortest_distance: invalid source");
  }
  if (!g.has_vertex(to)) {
    throw std::out_of_range("shortest_distance: invalid target");
  }
  NFVM_COUNTER_INC("graph.sp_engine.early_exit_queries");
  prepare(g);
  if (++target_generation_ == 0) {
    std::fill(target_stamp_.begin(), target_stamp_.end(), 0);
    target_generation_ = 1;
  }
  target_stamp_[to] = target_generation_;
  run<true>(workspace(), {&from, 1}, nullptr, 1);
  target_stamp_[to] = 0;
  return stamp_[to] == generation_ ? dist_[to] : kInfiniteDistance;
}

std::vector<double> SpEngine::distances_to(const Graph& g, VertexId from,
                                           std::span<const VertexId> targets) {
  if (!g.has_vertex(from)) {
    throw std::out_of_range("distances_to: invalid source");
  }
  for (VertexId t : targets) {
    if (!g.has_vertex(t)) throw std::out_of_range("distances_to: invalid target");
  }
  NFVM_COUNTER_INC("graph.sp_engine.early_exit_queries");
  prepare(g);
  if (++target_generation_ == 0) {
    std::fill(target_stamp_.begin(), target_stamp_.end(), 0);
    target_generation_ = 1;
  }
  std::size_t distinct = 0;
  for (VertexId t : targets) {
    if (target_stamp_[t] != target_generation_) {
      target_stamp_[t] = target_generation_;
      ++distinct;
    }
  }
  run<true>(workspace(), {&from, 1}, nullptr, distinct);
  std::vector<double> out;
  out.reserve(targets.size());
  for (VertexId t : targets) {
    out.push_back(stamp_[t] == generation_ ? dist_[t] : kInfiniteDistance);
    target_stamp_[t] = 0;  // leave no stale stamps for the next query
  }
  return out;
}

VertexId SpEngine::grow_step(const Graph& g,
                             std::span<const VertexId> tree_vertices,
                             std::span<const VertexId> targets) {
  prepare(g);
  if (++target_generation_ == 0) {
    std::fill(target_stamp_.begin(), target_stamp_.end(), 0);
    target_generation_ = 1;
  }
  std::size_t distinct = 0;
  for (VertexId t : targets) {
    if (target_stamp_[t] != target_generation_) {
      target_stamp_[t] = target_generation_;
      ++distinct;
    }
  }
  // Stop at the FIRST settled target — pending terminals race, closest wins.
  run<true>(workspace(), tree_vertices, nullptr, distinct > 0 ? 1 : 0);
  for (VertexId t : targets) target_stamp_[t] = 0;
  return last_settled_target_;
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

// --- SpCache ----------------------------------------------------------------

SpCache::SpCache(std::size_t capacity) : capacity_(capacity) {}

void SpCache::sync(const Graph& g) {
  if (bound_ && uid_ == g.uid() && epoch_ == g.epoch()) return;
  if (bound_ && !lru_.empty()) NFVM_COUNTER_INC("graph.spcache.invalidations");
  lru_.clear();
  index_.clear();
  uid_ = g.uid();
  epoch_ = g.epoch();
  bound_ = true;
}

std::shared_ptr<const ShortestPaths> SpCache::paths_from(const Graph& g,
                                                         VertexId source) {
  if (auto cached = try_get(g, source)) return cached;
  auto paths =
      std::make_shared<const ShortestPaths>(engine_.shortest_paths(g, source));
  put(g, source, paths);
  return paths;
}

std::shared_ptr<const ShortestPaths> SpCache::try_get(const Graph& g,
                                                      VertexId source) {
  sync(g);
  const auto it = index_.find(source);
  if (it == index_.end()) {
    NFVM_COUNTER_INC("graph.spcache.misses");
    return nullptr;
  }
  NFVM_COUNTER_INC("graph.spcache.hits");
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to front
  return it->second->second;
}

void SpCache::put(const Graph& g, VertexId source,
                  std::shared_ptr<const ShortestPaths> paths) {
  sync(g);
  const auto it = index_.find(source);
  if (it != index_.end()) {
    it->second->second = std::move(paths);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(source, std::move(paths));
  index_[source] = lru_.begin();
  if (capacity_ > 0 && lru_.size() > capacity_) {
    NFVM_COUNTER_INC("graph.spcache.evictions");
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

void SpCache::clear() {
  lru_.clear();
  index_.clear();
  bound_ = false;
}

}  // namespace nfvm::graph
