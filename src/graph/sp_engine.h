// Reusable shortest-path engine.
//
// Every algorithm in this library bottoms out in repeated Dijkstra runs.
// The free function graph::dijkstra allocates its result per call; the
// engine behind it keeps everything else — the CSR view, the queue and
// the repair scratch — across calls, so under heavy request volumes no
// query pays for allocation or pointer-chasing adjacency lists.
//
//  * SpEngine — owns a CsrView (rebuilt lazily when the graph's
//    (uid, epoch) changes) and one exact monotone radix queue keyed on the
//    bits of a distance (SpEngine::RadixQueue). Every query runs from one
//    source to completion and writes straight into the returned
//    ShortestPaths. Filtering is by a per-edge byte mask only:
//    callers evaluate their predicate once per edge into the mask, so the
//    relaxation loop never makes an indirect call. graph::dijkstra is a thin
//    wrapper over the per-thread engine.
//
//    When the CSR weight inspection finds every edge weight equal to 1.0
//    (true for every topology generator in the repo), queries take a
//    level-synchronous breadth-first search instead of the queue. It reads
//    bitset rows instead of the CSR entries: each vertex's mask-allowed
//    neighbours as runs of (word, bits), with its first allowed edge to
//    each. The seen set and the frontier are bitsets, each level drained
//    in ascending vertex id, and a settled vertex claims the unseen bits of
//    each run in one word operation. A vertex's parent is then the
//    smallest-id vertex of the previous level with an allowed edge to it,
//    through that vertex's first allowed edge in adjacency order — exactly
//    the queue's (distance, vertex id) tree, with the same scan and relax
//    counts, which tests/test_sp_dial.cpp asserts. A lone compute() builds
//    the rows for its one tree; TreeTable::compute builds them once per
//    call and every missing tree of that call reads them. Every other
//    weighting, integer weights above 1 included, takes the queue.
//
//    SpEngine::repair brings an existing tree up to date after a batch of
//    edge-weight / mask changes without a full run (graph/sp_repair.h holds
//    the exactness argument and the persistent store built on it).
//
//  * TreeTable — the one owner of fresh shortest-path trees: trees on one
//    graph under one mask, keyed by root, each computed once by the
//    engine's full run and fanned out over the global ThreadPool. A
//    request's WorkContext, Online_SP, SP_static and the repair store's
//    non-root sources each keep one; readers ask it for from(v), a
//    reference that stays valid and unchanged until clear(). Only the
//    repair store's persistent roots (graph/sp_repair.h) live elsewhere.
//
// Tie-breaking: the engine's queue pops vertices in (distance, vertex id)
// order, exactly like the std::priority_queue<pair<double, VertexId>> of
// the historical implementation, and CSR entries keep Graph::neighbors
// order — so the engine returns bit-identical trees to it. Each vertex is
// queued once and its key lowered in place, so the queue pops the same
// (distance, id) minimum the historical lazy-deletion heap reached after
// skipping its stale entries. Its keys are exact: a run pushes
// fl(d + w) >= d for w >= 0, never -0.0 (the source sits at +0.0 and
// fl(+0.0 + -0.0) = +0.0, though Graph::add_edge takes -0.0), and never
// +inf (an overflowing sum is no improvement); a repair pushes its seeds
// before its first pop. Equal distances pop in ascending id, also when a
// zero-weight edge queues a smaller id after a larger one popped at that
// distance; a FIFO bucket would change parents on zero-weight plateaus.
//
// Thread model: SpEngine is NOT thread-safe; use one per thread
// (SpEngine::thread_local_engine()). Concurrent *reads* of a const Graph
// from many engines are safe.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "graph/dijkstra.h"
#include "graph/graph.h"

namespace nfvm::graph {

/// One edge whose *effective* weight changed under a shortest-path tree:
/// its weight when the edge is allowed by the query's mask, and
/// kInfiniteDistance when it is masked out.
struct EdgeChange {
  EdgeId edge = kInvalidEdge;
  double old_weight = kInfiniteDistance;
  double new_weight = kInfiniteDistance;
};

/// What SpEngine::repair did to a tree.
enum class RepairOutcome : std::uint8_t {
  kKept,        ///< the keep rule proved the tree unchanged; not touched
  kRepaired,    ///< dist / parent / parent_edge repaired in place
  kRecomputed,  ///< a tie made a local repair unsafe; recomputed in full
};

/// The keep rule: true when every change is on a non-tree edge of `tree`
/// and its effective weight did not go down. Such a tree is bit-identical
/// to a fresh run on the changed graph, ties or not (docs/performance.md,
/// "Repairing the server trees").
bool tree_unaffected(const Graph& g, const ShortestPaths& tree,
                     std::span<const EdgeChange> changes);

class SpEngine {
 public:
  SpEngine() = default;
  SpEngine(const SpEngine&) = delete;
  SpEngine& operator=(const SpEngine&) = delete;

  /// Full Dijkstra from `source`. Bit-identical to graph::dijkstra.
  /// Throws std::out_of_range for a bad source.
  ShortestPaths shortest_paths(const Graph& g, VertexId source);

  /// Full masked Dijkstra from `tree.source`, written into `tree` (resized
  /// to the graph). Lets a caller that keeps a tree reuse its buffers.
  void compute(const Graph& g, ShortestPaths& tree,
               std::span<const std::uint8_t> edge_mask);

  /// True when every reachable vertex of `tree` other than its source is
  /// locally tie-free under `edge_mask`: its tight in-neighbours (u != v,
  /// dist[u] + w == dist[v]) have pairwise distinct distances, all strictly
  /// below dist[v]. On such a tree each parent is determined by the
  /// distances alone, which is what lets repair() rebuild parents locally.
  bool tie_free(const Graph& g, const ShortestPaths& tree,
                std::span<const std::uint8_t> edge_mask);

  /// Brings `tree` — a tree on `g` before `changes` — up to date with g's
  /// current weights under `edge_mask`, bit-identical to a fresh
  /// compute(). `changes` must list every edge whose effective weight
  /// differs from the one the tree was built against (duplicates are not
  /// allowed; unchanged extras are harmless). `tie_free` is the tree's
  /// tie_free() flag: a tree that is not tie-free, or a repair that meets a
  /// tie, is recomputed in full and the flag refreshed. Counted by
  /// graph.sp_repair.{trees_kept,trees_repaired,tie_fallbacks,
  /// vertices_touched}.
  RepairOutcome repair(const Graph& g, ShortestPaths& tree,
                       std::span<const EdgeChange> changes,
                       std::span<const std::uint8_t> edge_mask, bool& tie_free);

  /// True when the last query ran the breadth-first search.
  bool last_used_bfs() const noexcept { return last_used_bfs_; }

  /// Per-thread engine backing the graph::dijkstra wrappers. Scratch
  /// buffers and the CSR view persist across calls on the same thread.
  static SpEngine& thread_local_engine();

 private:
  /// The engine's one priority queue: an exact monotone radix queue over
  /// vertex ids (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990), keyed on
  /// the IEEE-754 bits of a distance. A finite double >= +0.0 sorts like
  /// its uint64 bit pattern, and runs and repairs push only such keys, none
  /// below the last pop. A queued vertex whose key differs from the last
  /// pop sits in the bucket of the highest byte in which they differ,
  /// indexed by its key's value there (8 levels x 256 buckets, each an
  /// intrusive list); one whose key equals the last pop sits in an id
  /// bitset drained with countr_zero. So pop() returns the (distance, id)
  /// minimum, even after a zero-weight edge queues a smaller id at the
  /// distance just popped.
  class RadixQueue {
   public:
    /// Sizes the queue for vertex ids below `n`; the queue must be empty.
    /// O(n) memory; allocates only when `n` grows.
    void reserve(std::size_t n);
    bool empty() const noexcept { return size_ == 0; }
    /// Queues `v` at `d`, or lowers its key to `d` when it is queued. `d`
    /// must be finite, at least +0.0 and no smaller than the last pop.
    void push(VertexId v, double d);
    /// Removes and returns the queued vertex of smallest (key, id).
    VertexId pop();
    /// Unqueues every vertex and rebases the keys at +0.0. Every run and
    /// repair starts with it; a drained queue needs nothing else.
    void clear();

   private:
    static constexpr std::uint32_t kBuckets = 8 * 256;
    static constexpr std::uint64_t kUnqueued = ~std::uint64_t{0};  // a NaN
    struct Node {
      std::uint64_t key;  // kUnqueued when the vertex is not queued
      std::uint32_t next;
      std::uint32_t prev;
    };
    /// Files queued `v` by its key: in the equal set or a bucket's list.
    void place(VertexId v);
    /// Makes the smallest key of the lowest nonempty bucket the last pop
    /// and files that bucket's vertices under it. Returns the vertex when
    /// the bucket held only it (left unfiled), and cap_ or more otherwise.
    std::uint32_t refill();

    /// Vertices [0, cap_), then one list head (sentinel) per bucket.
    std::vector<Node> nodes_;
    std::uint32_t cap_ = 0;
    /// Buckets that may be nonempty (a decrease-key leaves its bit set),
    /// and the levels that hold such a bucket.
    std::array<std::uint64_t, kBuckets / 64> occupied_{};
    std::uint32_t levels_ = 0;
    /// The vertices queued at last_, by id; no word below equal_word_
    /// holds a bit.
    std::vector<std::uint64_t> equal_;
    std::size_t equal_count_ = 0;
    std::size_t equal_word_ = 0;
    std::uint64_t last_ = 0;  // the last pop's key
    std::size_t size_ = 0;
  };

  friend class TreeTable;  // shares one engine's rows across a call's trees

  /// The breadth-first search's adjacency on one graph under one mask. For
  /// each vertex: the neighbours its allowed entries reach, as runs of
  /// (word, bits); its first allowed edge to each of them in adjacency
  /// order, indexed by the bit's rank in its run; and its count of allowed
  /// entries, self-loops and parallel edges included.
  struct BitsetRows {
    struct Row {
      std::uint32_t first_run;  // runs of vertex v: [first_run, row v+1's)
      std::uint32_t allowed;    // allowed entries
    };
    struct Run {
      std::uint64_t bits;        // the neighbours in word `word`
      std::uint32_t word;
      std::uint32_t first_edge;  // edges[first_edge + rank of a bit in bits]
    };
    std::vector<Row> rows;  // by vertex, plus one closing row
    std::vector<Run> runs;  // sized for one run per entry
    std::vector<EdgeId> edges;  // sized for one edge per entry
    /// Build scratch: one vertex's neighbours by word, the words they
    /// fill, and the first allowed edge to each neighbour.
    std::vector<std::uint64_t> pending;
    std::vector<std::uint32_t> pending_words;
    std::vector<EdgeId> pending_edge;

    /// Rebuilds the rows from `view` over the entries `edge_mask` allows
    /// (null allows all). O(n + m); allocates only when the view grew.
    void build(const CsrView& view, const std::uint8_t* edge_mask);
  };

  /// Refreshes the view, sizes the scratch buffers and advances the
  /// generation.
  void prepare(const Graph& g);
  /// Builds rows_ on the prepared view under `edge_mask` and returns them
  /// when every weight is 1.0; null otherwise. They stay unchanged until
  /// the next unit_rows() call on this engine.
  const BitsetRows* unit_rows(const std::uint8_t* edge_mask);
  /// Full masked run from `tree.source` into `tree` (view already
  /// prepared): the breadth-first search over `rows` when they are given,
  /// which must be unit_rows() of a view of the same graph under the same
  /// mask, and the radix queue's Dijkstra loop otherwise. `edge_mask` may
  /// be null.
  void compute_prepared(ShortestPaths& tree, const std::uint8_t* edge_mask,
                        const BitsetRows* rows);
  /// The two loops behind compute_prepared, on a tree whose labels are
  /// reset and whose source sits at distance zero.
  void run_weighted(ShortestPaths& tree, const std::uint8_t* edge_mask);
  void run_bfs(ShortestPaths& tree, const BitsetRows& rows);
  /// v's parent and parent edge as determined by its tight in-neighbours
  /// (see tie_free); false when v is not locally tie-free. Reads the view
  /// prepared for the tree's graph.
  bool tight_parent(const ShortestPaths& tree, VertexId v,
                    const std::uint8_t* edge_mask, VertexId& parent,
                    EdgeId& parent_edge);
  bool tie_free_prepared(const ShortestPaths& tree, const std::uint8_t* edge_mask);
  /// The local repair behind repair(); false when it met a tie. The tree is
  /// then partly rewritten and the queue may still hold vertices: the
  /// caller clears the queue and recomputes.
  bool repair_prepared(const Graph& g, ShortestPaths& tree,
                       std::span<const EdgeChange> changes,
                       const std::uint8_t* edge_mask);

  CsrView view_;
  RadixQueue queue_;
  /// Breadth-first search state, one bit per vertex: the vertices reached,
  /// the level being drained and the next level, with the indices of the
  /// level words that hold a bit. Every run leaves both level bitsets zero.
  std::vector<std::uint64_t> seen_;
  std::vector<std::uint64_t> level_;
  std::vector<std::uint64_t> next_level_;
  std::vector<std::uint32_t> level_words_;
  std::vector<std::uint32_t> next_level_words_;
  /// One settled vertex's run that reached unseen vertices: the search's
  /// log of nonempty claims, in settle order.
  struct BfsClaim {
    std::uint64_t fresh;  // the vertices claimed, in the run's word
    VertexId by;          // the claiming vertex
    std::uint32_t run;    // its run, an index into BitsetRows::runs
  };
  std::vector<BfsClaim> claims_;
  BitsetRows rows_;
  bool last_used_bfs_ = false;
  /// Repair scratch: the invalidated region (stamp_ == generation_), the
  /// old tree's children (CSR by parent), the re-settled vertices
  /// (settled_ == generation_), the vertices queued for a parent check
  /// (deduplicated by mark_), and one vertex's tight in-neighbours.
  std::vector<std::uint32_t> stamp_;
  std::uint32_t generation_ = 0;
  std::vector<std::uint32_t> child_start_;
  std::vector<std::uint32_t> child_cursor_;
  std::vector<VertexId> child_list_;
  std::vector<VertexId> region_;
  std::vector<std::uint32_t> settled_;
  std::vector<VertexId> recheck_;
  std::vector<std::uint32_t> mark_;
  std::uint32_t mark_generation_ = 0;
  std::vector<std::pair<double, VertexId>> tight_;
};

/// Shortest-path trees on one graph under one edge mask, keyed by root.
/// Trees are held by value in storage that never moves one when the table
/// grows, so a reference from from() stays valid and unchanged while later
/// compute() calls add trees, until clear(). A held tree is never
/// recomputed: between two clear() calls every compute() must pass the same
/// unchanged graph and the same mask.
class TreeTable {
 public:
  TreeTable() = default;
  // Not copyable: tree_of_ points into trees_. A move keeps the trees
  // where they are.
  TreeTable(const TreeTable&) = delete;
  TreeTable& operator=(const TreeTable&) = delete;
  TreeTable(TreeTable&&) = default;
  TreeTable& operator=(TreeTable&&) = default;

  /// Computes the tree from each of `roots` that the table does not hold
  /// yet, once (a repeated root gets one tree), on `g` over the edges whose
  /// mask byte is nonzero (an empty mask allows every edge). On unit
  /// weights the calling thread's engine builds the breadth-first search's
  /// bitset rows once, and every missing tree of the call reads them. Fans
  /// out over util::ThreadPool::global(), one task per tree, when the pool
  /// has more than one thread and more than one tree is missing. Every tree depends
  /// only on (graph, mask, root), so the table is identical at any thread
  /// count. Returns the number of trees computed. Throws std::out_of_range
  /// for a bad root and std::invalid_argument for a short mask, before
  /// computing anything.
  std::size_t compute(const Graph& g, std::span<const VertexId> roots,
                      std::span<const std::uint8_t> edge_mask = {});

  /// compute() without the runs, for an owner that fans them out with other
  /// work: adds a tree for each of `roots` the table does not hold yet, once,
  /// with only its source set, and returns them. The caller must fill each
  /// with SpEngine::compute on `g` and `edge_mask` before reading it through
  /// from(); the span stays valid until the next add(), compute() or
  /// clear(). Throws like compute(), before adding anything.
  std::span<ShortestPaths* const> add(const Graph& g, std::span<const VertexId> roots,
                                      std::span<const std::uint8_t> edge_mask = {});

  bool has(VertexId v) const noexcept {
    return v < tree_of_.size() && tree_of_[v] != nullptr;
  }

  /// The tree from `v`. Throws std::logic_error when the table holds none.
  const ShortestPaths& from(VertexId v) const {
    if (!has(v)) throw_missing();
    return *tree_of_[v];
  }

  /// Forgets every tree but keeps the buffers, so computing as many trees
  /// again allocates nothing.
  void clear() noexcept;

 private:
  [[noreturn]] static void throw_missing();

  /// trees_[0, held_) are the held trees; the rest are spare buffers.
  std::deque<ShortestPaths> trees_;
  std::size_t held_ = 0;
  std::vector<ShortestPaths*> tree_of_;  // by root; null when not held
  std::vector<ShortestPaths*> missing_;  // the trees the last add() added
};

}  // namespace nfvm::graph
