// Persistent shortest-path trees, repaired in place across edge changes.
// The store serves Online_CP only: Online_SP's unit-weight trees cost less
// to recompute by breadth-first search than to diff and repair.
//
// Online_CP prices every candidate server with a tree from that server, and
// between two requests those trees barely change: an admission raises the
// weights of a few dozen links, a release lowers them, and a new bandwidth
// demand flips the eligibility of a few more. SpTreeStore keeps one tree per
// declared root and, on each query, brings it up to date with
// SpEngine::repair instead of recomputing it. Every returned tree is
// bit-identical (dist, parent, parent_edge) to a fresh SpEngine run.
//
// Exactness (docs/performance.md, "Repairing the server trees"):
//
//  * Changed edges. The store keeps one snapshot of every edge's effective
//    weight (its weight when the mask allows it, infinity otherwise) and,
//    per update, one change set C: the edges whose effective weight moved
//    since the previous update, each with its old and new value. A tree
//    the previous update listed is current as of that snapshot, so C is
//    its change set; a tree the previous update did not list is recomputed
//    in full.
//  * Keep rule. When every edge of C is a non-tree edge whose effective
//    weight did not go down, the tree is unchanged — even with ties: such a
//    change can neither create a shorter path nor remove a parent edge, and
//    the settle order of a Dijkstra run depends only on the tree.
//  * Distances. Subtrees under changed tree edges are invalidated, seeded
//    from their boundary and from the endpoints of decreased edges, and
//    re-settled by Dijkstra. fl(a + w) is monotone in a, so a Dijkstra
//    distance is the unique minimum over paths of the left-to-right
//    floating-point sums; the repaired distances therefore carry the same
//    bits as a fresh run.
//  * Parents. Dijkstra's parent for v is the first tight in-neighbour it
//    settles. When v's tight in-neighbours have pairwise distinct
//    distances, all below dist[v], that is the one with the smallest
//    distance (first tight parallel edge in adjacency order). Parents are
//    recomputed only where the tight set can have changed — invalidated or
//    re-settled vertices, old children of re-settled vertices, vertices a
//    re-settled vertex is tight for, and endpoints of C — and any tie there
//    falls back to a full recompute. Trees that were not tie-free to begin
//    with (zero-weight plateaus, unit weights) are recomputed in full
//    unless the keep rule applies.
//
// The store holds each root's tree by value and repairs it in place; a
// caller reads it through from(v) until the next update. Every other
// source's tree is computed fresh on each update into a graph::TreeTable
// whose buffers are reused across calls. The store is plain per-owner
// state — no globals, no thread-locals — so two owners replaying the same
// stream do identical work. Not thread-safe; an update's fresh trees and
// repairs fan out together, one pool region, over util::ThreadPool::global().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/dijkstra.h"
#include "graph/graph.h"
#include "graph/sp_engine.h"

namespace nfvm::graph {

class SpTreeStore {
 public:
  /// Trees from `roots` persist across calls; every other source is
  /// computed fresh on each call and kept until the next one.
  explicit SpTreeStore(std::span<const VertexId> roots);
  SpTreeStore(const SpTreeStore&) = delete;
  SpTreeStore& operator=(const SpTreeStore&) = delete;

  /// Brings the tree from each of `sources` up to date on `g` over the
  /// edges whose mask byte is nonzero (an empty mask allows every edge):
  /// persistent trees are kept or repaired in place, the others computed
  /// fresh. A repeated source gets one tree. Results are identical at any
  /// thread count.
  void update(const Graph& g, std::span<const VertexId> sources,
              std::span<const std::uint8_t> edge_mask);

  /// The tree from `v`, which the last update() must have listed; throws
  /// std::logic_error otherwise. The reference stays valid and unchanged
  /// until the next update() or clear().
  const ShortestPaths& from(VertexId v) const;

  /// Drops every stored tree, the weight snapshot and the change set.
  void clear();

 private:
  struct Entry {
    ShortestPaths tree;           // empty until first built
    std::uint64_t listed_in = 0;  // the last update() that listed it
    bool tie_free = false;
  };
  /// A persistent tree the update runs an engine on: a repair against
  /// changes_, or a full run.
  struct Task {
    Entry* entry;
    bool repair;
  };

  /// Binds to `g` (dropping everything on a different graph) and sets
  /// changes_ to the edges whose effective weight moved since the last call.
  void sync(const Graph& g, std::span<const std::uint8_t> edge_mask);

  std::vector<Entry> entries_;           // one per distinct root
  std::vector<std::uint32_t> entry_of_;  // vertex -> entries_ index + 1, 0 = none
  std::uint64_t updates_ = 0;            // update() calls so far
  TreeTable fresh_;                      // the last update's other sources
  std::vector<VertexId> fresh_sources_;  // update() scratch
  std::vector<Task> tasks_;              // update() scratch
  bool bound_ = false;
  std::uint64_t uid_ = 0;
  std::vector<double> effective_;    // per edge, as of the last sync
  std::vector<EdgeChange> changes_;  // one per edge the last sync saw move
};

}  // namespace nfvm::graph
