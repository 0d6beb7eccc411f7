// SP - the baseline online heuristic of the paper's evaluation (Section
// VI-A): prune links/servers without enough residual resources, give every
// remaining link the same unit weight, and for each candidate server take
// the shortest path s_k -> v plus a shortest-path tree rooted at v spanning
// the destinations; the candidate using the fewest link traversals wins.
// No admission thresholds: SP admits whenever some candidate is feasible.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/online.h"
#include "graph/dijkstra.h"

namespace nfvm::core {

/// Every request computes the source tree and one tree per server that
/// passes the compute gate, fresh on the topology graph over the links
/// eligible at b_k. The topology's unit link weights make each tree a
/// breadth-first search (graph/sp_engine.h), which costs less than diffing
/// and repairing stored trees, so SP keeps no repair store and no working
/// view. Candidates are priced with one parent walk, and pseudo-trees are
/// assembled only for the cost-prune survivors. Decisions are
/// bit-identical at any thread count. See docs/performance.md, "The online
/// fast path".
class OnlineSp final : public OnlineAlgorithm {
 public:
  explicit OnlineSp(const topo::Topology& topo) : OnlineAlgorithm(topo) {}

  std::string_view name() const override { return "SP"; }

 protected:
  AdmissionDecision try_admit(const nfv::Request& request) override;

 private:
  /// Fills trees_[0] with the tree from `source` and trees_[1 + i] with the
  /// tree from servers[i], on the topology graph over the links eligible at
  /// bandwidth `b`; fanned out over util::ThreadPool::global().
  void compute_trees(graph::VertexId source,
                     std::span<const graph::VertexId> servers, double b);

  /// Per-request scratch, reused across requests: the links eligible at the
  /// request's bandwidth, the trees (slot 0 from the source, slot 1 + i
  /// from the i-th server past the compute gate) and the marks for pricing
  /// and assembling candidate trees.
  std::vector<std::uint8_t> mask_;
  std::vector<graph::ShortestPaths> trees_;
  VertexMarks marks_;
};

}  // namespace nfvm::core
