#include "graph/sp_engine.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace nfvm::graph {

namespace {

std::uint32_t word_of(VertexId v) { return static_cast<std::uint32_t>(v >> 6); }
std::uint64_t bit_of(VertexId v) { return std::uint64_t{1} << (v & 63); }

/// The number of set bits of `bits` below bit `b`. Counted inline:
/// std::popcount is a library call on a build without -mpopcnt.
unsigned rank_below(std::uint64_t bits, int b) {
  std::uint64_t x = bits & ((std::uint64_t{1} << b) - 1);
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<unsigned>((x * 0x0101010101010101ULL) >> 56);
}

/// Resets `tree` to "nothing reached" from `source` on an n-vertex graph.
void reset_tree(ShortestPaths& tree, VertexId source, std::size_t n) {
  tree.source = source;
  tree.dist.assign(n, kInfiniteDistance);
  tree.parent.assign(n, kInvalidVertex);
  tree.parent_edge.assign(n, kInvalidEdge);
}

}  // namespace

// --- SpEngine::RadixQueue ----------------------------------------------------

void SpEngine::RadixQueue::reserve(std::size_t n) {
  if (!nodes_.empty() && n <= cap_) return;
  cap_ = static_cast<std::uint32_t>(n);
  nodes_.resize(n + kBuckets);
  for (std::uint32_t v = 0; v < cap_; ++v) nodes_[v] = Node{kUnqueued, 0, 0};
  for (std::uint32_t s = cap_; s < cap_ + kBuckets; ++s) nodes_[s] = Node{0, s, s};
  equal_.assign((n + 63) / 64, 0);
  clear();
}

void SpEngine::RadixQueue::place(VertexId v) {
  const std::uint64_t key = nodes_[v].key;
  const std::uint64_t diff = key ^ last_;
  if (diff == 0) {
    equal_[word_of(v)] |= bit_of(v);
    equal_word_ = std::min<std::size_t>(equal_word_, word_of(v));
    ++equal_count_;
    return;
  }
  // The highest byte in which the key differs from last_, where it is the
  // larger one, and the key's value there.
  const unsigned level = static_cast<unsigned>(std::bit_width(diff) - 1) >> 3;
  const std::uint32_t bucket =
      256 * level + static_cast<std::uint32_t>((key >> (8 * level)) & 255);
  const std::uint32_t head = cap_ + bucket;
  const std::uint32_t first = nodes_[head].next;
  nodes_[v].next = first;
  nodes_[v].prev = head;
  nodes_[first].prev = v;
  nodes_[head].next = v;
  occupied_[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
  levels_ |= 1u << level;
}

void SpEngine::RadixQueue::push(VertexId v, double d) {
  Node& node = nodes_[v];
  if (node.key == kUnqueued) {
    ++size_;
  } else {
    // Queued above last_ (a key equal to it cannot fall): leave its list.
    nodes_[node.prev].next = node.next;
    nodes_[node.next].prev = node.prev;
  }
  node.key = std::bit_cast<std::uint64_t>(d);
  place(v);
}

// Every key in a bucket of level L agrees with last_ above byte L and
// exceeds it in byte L, so the lowest nonempty bucket of the lowest level
// holds the smallest keys. Making their minimum the new last_ leaves every
// other queued key in the same bucket, and each of this bucket's keys moves
// to a lower level or to the equal set.
std::uint32_t SpEngine::RadixQueue::refill() {
  for (;;) {
    const int level = std::countr_zero(levels_);
    std::uint64_t* const words = occupied_.data() + 4 * level;
    int w = 0;
    while (words[w] == 0) ++w;
    const std::uint32_t head =
        cap_ + 256 * static_cast<std::uint32_t>(level) +
        64 * static_cast<std::uint32_t>(w) +
        static_cast<std::uint32_t>(std::countr_zero(words[w]));
    words[w] &= words[w] - 1;
    if ((words[0] | words[1] | words[2] | words[3]) == 0) levels_ &= ~(1u << level);
    const std::uint32_t first = nodes_[head].next;
    if (first == head) continue;  // emptied by decrease-keys
    nodes_[head].next = head;
    nodes_[head].prev = head;
    if (nodes_[first].next == head) {  // one vertex: the minimum itself
      last_ = nodes_[first].key;
      return first;
    }
    std::uint64_t min_key = nodes_[first].key;
    for (std::uint32_t v = nodes_[first].next; v != head; v = nodes_[v].next) {
      min_key = std::min(min_key, nodes_[v].key);
    }
    last_ = min_key;
    for (std::uint32_t v = first; v != head;) {
      const std::uint32_t next = nodes_[v].next;
      place(v);
      v = next;
    }
    return head;
  }
}

VertexId SpEngine::RadixQueue::pop() {
  --size_;
  if (equal_count_ == 0) {
    const std::uint32_t v = refill();
    if (v < cap_) {
      nodes_[v].key = kUnqueued;
      return v;
    }
  }
  while (equal_[equal_word_] == 0) ++equal_word_;
  const std::uint64_t bits = equal_[equal_word_];
  equal_[equal_word_] = bits & (bits - 1);
  const VertexId v = (static_cast<VertexId>(equal_word_) << 6) |
                     static_cast<VertexId>(std::countr_zero(bits));
  if (--equal_count_ == 0) equal_word_ = equal_.size();
  nodes_[v].key = kUnqueued;
  return v;
}

void SpEngine::RadixQueue::clear() {
  if (size_ != 0) {
    for (std::uint32_t i = 0; i < occupied_.size(); ++i) {
      for (std::uint64_t bits = occupied_[i]; bits != 0; bits &= bits - 1) {
        const std::uint32_t head =
            cap_ + 64 * i + static_cast<std::uint32_t>(std::countr_zero(bits));
        for (std::uint32_t v = nodes_[head].next; v != head; v = nodes_[v].next) {
          nodes_[v].key = kUnqueued;
        }
        nodes_[head].next = head;
        nodes_[head].prev = head;
      }
    }
    for (std::size_t w = 0; w < equal_.size(); ++w) {
      for (std::uint64_t bits = std::exchange(equal_[w], 0); bits != 0;
           bits &= bits - 1) {
        nodes_[(static_cast<VertexId>(w) << 6) |
               static_cast<VertexId>(std::countr_zero(bits))]
            .key = kUnqueued;
      }
    }
    size_ = 0;
  }
  occupied_.fill(0);
  levels_ = 0;
  equal_count_ = 0;
  equal_word_ = equal_.size();
  last_ = 0;
}

// --- SpEngine ---------------------------------------------------------------

void SpEngine::prepare(const Graph& g) {
  view_.refresh(g);
  const std::size_t n = g.num_vertices();
  if (stamp_.size() < n) {
    claims_.resize(n);  // each kept claim reaches a new vertex
    stamp_.resize(n, 0);
    mark_.resize(n, 0);
    settled_.resize(n, 0);
    queue_.reserve(n);
  }
  const std::size_t words = (n + 63) / 64;
  if (seen_.size() < words) {
    seen_.resize(words, 0);
    level_.resize(words, 0);
    next_level_.resize(words, 0);
    // A level lists each word at most once, plus the search's spare write.
    level_words_.resize(words + 1);
    next_level_words_.resize(words + 1);
  }
  if (++generation_ == 0) {  // wrapped: stamps are ambiguous, hard reset
    std::fill(stamp_.begin(), stamp_.end(), 0);
    std::fill(settled_.begin(), settled_.end(), 0);
    generation_ = 1;
  }
}

// Dijkstra on the radix queue. Each vertex is queued at most once and its
// key only ever decreases, so the pop sequence is the (distance, id) order
// of the settled vertices — the same sequence the historical lazy-deletion
// heap produced after skipping its stale entries (tests/test_sp_repair.cpp
// compares the two).
void SpEngine::run_weighted(ShortestPaths& tree, const std::uint8_t* edge_mask) {
  NFVM_OBS_ONLY(std::uint64_t edges_scanned = 0; std::uint64_t edges_relaxed = 0;)
  double* const dist = tree.dist.data();
  VertexId* const parent = tree.parent.data();
  EdgeId* const parent_edge = tree.parent_edge.data();
  while (!queue_.empty()) {
    const VertexId u = queue_.pop();
    const double du = dist[u];
    for (const CsrEntry& entry : view_.out(u)) {
      if (edge_mask != nullptr && edge_mask[entry.edge] == 0) continue;
      NFVM_OBS_ONLY(++edges_scanned;)
      const double nd = du + entry.weight;
      if (nd < dist[entry.neighbor]) {
        NFVM_OBS_ONLY(++edges_relaxed;)
        dist[entry.neighbor] = nd;
        parent[entry.neighbor] = u;
        parent_edge[entry.neighbor] = entry.edge;
        queue_.push(entry.neighbor, nd);
      }
    }
  }
  NFVM_COUNTER_ADD("graph.dijkstra.edges_scanned", edges_scanned);
  NFVM_COUNTER_ADD("graph.dijkstra.edges_relaxed", edges_relaxed);
}

// One backward pass over each vertex's entries, with no branch on the
// mask: an allowed entry sets its neighbour's bit in the vertex's pending
// words and writes its edge as the neighbour's first edge (a masked one
// writes into the spare slot n), so the first allowed entry in adjacency
// order writes last and stays. Each filled word then closes as one run.
void SpEngine::BitsetRows::build(const CsrView& view, const std::uint8_t* edge_mask) {
  const std::size_t n = view.num_vertices();
  rows.resize(n + 1);
  runs.resize(view.num_entries());
  edges.resize(view.num_entries());
  const std::size_t words = (n + 63) / 64;
  if (pending.size() < words) {
    pending.resize(words, 0);
    // A vertex lists each word it fills once, plus the loop's spare write.
    pending_words.resize(words + 1);
  }
  if (pending_edge.size() < n + 1) pending_edge.resize(n + 1);
  std::uint64_t* const pend = pending.data();
  std::uint32_t* const filled = pending_words.data();
  EdgeId* const first_edge = pending_edge.data();
  std::uint32_t run = 0;
  std::uint32_t edge = 0;
  for (VertexId u = 0; u < n; ++u) {
    const std::span<const CsrEntry> out = view.out(u);
    std::uint32_t allowed = 0;
    std::uint32_t num_filled = 0;
    for (std::size_t i = out.size(); i-- > 0;) {
      const CsrEntry& entry = out[i];
      const std::uint32_t ok = edge_mask == nullptr || edge_mask[entry.edge] != 0;
      const VertexId v = entry.neighbor;
      std::uint64_t& word = pend[word_of(v)];
      filled[num_filled] = word_of(v);
      num_filled += ok & static_cast<std::uint32_t>(word == 0);
      word |= bit_of(v) & (std::uint64_t{0} - ok);
      // v when allowed, n when masked, selected without a branch.
      const VertexId slot = v ^ ((v ^ static_cast<VertexId>(n)) & (ok - 1));
      first_edge[slot] = entry.edge;
      allowed += ok;
    }
    rows[u] = Row{run, allowed};
    for (std::uint32_t k = 0; k < num_filled; ++k) {
      const std::uint32_t w = filled[k];
      const std::uint64_t bits = std::exchange(pend[w], 0);
      runs[run++] = Run{bits, w, edge};
      for (std::uint64_t rest = bits; rest != 0; rest &= rest - 1) {
        edges[edge++] = first_edge[(VertexId{w} << 6) |
                                   static_cast<VertexId>(std::countr_zero(rest))];
      }
    }
  }
  rows[n] = Row{run, 0};
}

// Level-synchronous breadth-first search over bitset rows. Precondition
// (checked by the CSR weight inspection): every edge weight is exactly 1.0.
// Dijkstra settles the vertices in (distance, id) order, and with unit
// weights the first relaxation of a vertex already carries its final
// distance, so its parent is the first settled in-neighbour with an allowed
// edge: the smallest-id vertex of the previous level, through that vertex's
// first allowed edge in adjacency order. Each level is drained word by word
// in ascending word index and each word from its lowest bit, so its
// vertices settle in ascending id; a settled vertex claims, from each of
// its runs, the bits not seen yet (fresh = bits & ~seen), so every vertex
// is claimed by the first settled vertex of the previous level that
// reaches it, through the run's first allowed edge to it: Dijkstra's tree.
// The first pass only finds the levels and logs each nonempty claim, with
// no branch per run; the second writes each claimed vertex's label in log
// order, where its claimer's distance is already final. Dijkstra scans
// every allowed entry of a settled vertex and relaxes each reached vertex
// once, so the search adds a settled vertex's allowed-entry count to
// edges_scanned and counts each claimed vertex as one relaxation. Only the
// words a level touched are drained, so a run stays O(n + m) on
// long-diameter graphs.
void SpEngine::run_bfs(ShortestPaths& tree, const BitsetRows& rows) {
  NFVM_OBS_ONLY(std::uint64_t edges_scanned = 0; std::uint64_t edges_relaxed = 0;)
  std::uint64_t* const seen = seen_.data();
  std::uint64_t* level = level_.data();
  std::uint64_t* next_level = next_level_.data();
  // The words each level fills, each listed once: every run writes its
  // word at the end of the next level's list and keeps it only when it
  // fills the word first. Claims are logged the same way.
  std::uint32_t* level_words = level_words_.data();
  std::uint32_t* next_level_words = next_level_words_.data();
  BfsClaim* const claims = claims_.data();
  const BitsetRows::Row* const row = rows.rows.data();
  const BitsetRows::Run* const runs = rows.runs.data();

  std::fill_n(seen, (view_.num_vertices() + 63) / 64, 0);
  seen[word_of(tree.source)] = bit_of(tree.source);
  level[word_of(tree.source)] = bit_of(tree.source);
  level_words[0] = word_of(tree.source);
  std::size_t num_claims = 0;
  for (std::size_t num_level_words = 1; num_level_words != 0;) {
    if (num_level_words > 1) std::sort(level_words, level_words + num_level_words);
    std::size_t num_next_words = 0;
    for (std::size_t i = 0; i < num_level_words; ++i) {
      const std::uint32_t w = level_words[i];
      for (std::uint64_t bits = std::exchange(level[w], 0); bits != 0;
           bits &= bits - 1) {
        const VertexId u =
            (VertexId{w} << 6) | static_cast<VertexId>(std::countr_zero(bits));
        NFVM_OBS_ONLY(edges_scanned += row[u].allowed;)
        for (std::uint32_t r = row[u].first_run; r < row[u + 1].first_run; ++r) {
          const std::uint32_t word = runs[r].word;
          const std::uint64_t fresh = runs[r].bits & ~seen[word];
          seen[word] |= fresh;
          next_level_words[num_next_words] = word;
          num_next_words +=
              static_cast<std::size_t>((next_level[word] == 0) & (fresh != 0));
          next_level[word] |= fresh;
          claims[num_claims] = BfsClaim{fresh, u, r};
          num_claims += static_cast<std::size_t>(fresh != 0);
        }
      }
    }
    std::swap(level, next_level);
    std::swap(level_words, next_level_words);
    num_level_words = num_next_words;
  }

  double* const dist = tree.dist.data();
  VertexId* const parent = tree.parent.data();
  EdgeId* const parent_edge = tree.parent_edge.data();
  for (std::size_t c = 0; c < num_claims; ++c) {
    const BfsClaim claim = claims[c];
    const BitsetRows::Run run = runs[claim.run];
    const double d = dist[claim.by] + 1.0;
    for (std::uint64_t rest = claim.fresh; rest != 0; rest &= rest - 1) {
      NFVM_OBS_ONLY(++edges_relaxed;)
      const int b = std::countr_zero(rest);
      const VertexId v = (VertexId{run.word} << 6) | static_cast<VertexId>(b);
      dist[v] = d;
      parent[v] = claim.by;
      parent_edge[v] = rows.edges[run.first_edge + rank_below(run.bits, b)];
    }
  }
  NFVM_COUNTER_ADD("graph.dijkstra.edges_scanned", edges_scanned);
  NFVM_COUNTER_ADD("graph.dijkstra.edges_relaxed", edges_relaxed);
}

const SpEngine::BitsetRows* SpEngine::unit_rows(const std::uint8_t* edge_mask) {
  if (!view_.unit_weights()) return nullptr;
  rows_.build(view_, edge_mask);
  return &rows_;
}

void SpEngine::compute_prepared(ShortestPaths& tree, const std::uint8_t* edge_mask,
                                const BitsetRows* rows) {
  reset_tree(tree, tree.source, view_.num_vertices());
  NFVM_SPAN("graph/dijkstra");
  tree.dist[tree.source] = 0.0;
  last_used_bfs_ = rows != nullptr;
  if (last_used_bfs_) {
    run_bfs(tree, *rows);
    // The counter keeps the name of the bucket ring the search replaced.
    NFVM_COUNTER_INC("graph.dijkstra.dial_runs");
  } else {
    queue_.clear();
    queue_.push(tree.source, 0.0);
    run_weighted(tree, edge_mask);
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
  const std::uint8_t* const mask = edge_mask.empty() ? nullptr : edge_mask.data();
  compute_prepared(tree, mask, unit_rows(mask));
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
  if (missing.empty()) return 0;
  const std::uint8_t* const mask = edge_mask.empty() ? nullptr : edge_mask.data();
  // One build of the rows for all trees of the call; they stay unchanged
  // while the trees run, since no tree builds rows of its own.
  SpEngine& caller = SpEngine::thread_local_engine();
  caller.prepare(g);
  const SpEngine::BitsetRows* const rows = caller.unit_rows(mask);
  const auto compute_tree = [&](std::size_t k) {
    SpEngine& engine = SpEngine::thread_local_engine();
    engine.prepare(g);
    engine.compute_prepared(*missing[k], mask, rows);
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
