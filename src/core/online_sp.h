// SP - the baseline online heuristic of the paper's evaluation (Section
// VI-A): prune links/servers without enough residual resources, give every
// remaining link the same unit weight, and for each candidate server take
// the shortest path s_k -> v plus a shortest-path tree rooted at v spanning
// the destinations; the candidate using the fewest link traversals wins.
// No admission thresholds: SP admits whenever some candidate is feasible.
#pragma once

#include <cstdint>
#include <vector>

#include "core/online.h"
#include "graph/sp_engine.h"

namespace nfvm::core {

/// Every request computes one tree per distinct root among the source and
/// the servers that pass the compute gate, fresh on the topology graph over
/// the links eligible at b_k, into a graph::TreeTable cleared per request.
/// The topology's unit link weights make each tree a breadth-first search
/// (graph/sp_engine.h) over bitset rows of the eligible links, which the
/// table builds once per request for all of its trees; that costs less
/// than diffing and repairing stored trees, so SP keeps no repair store
/// and no working view. Candidates are priced with one parent walk, and
/// pseudo-trees are assembled only for the cost-prune survivors. Decisions
/// are bit-identical at any thread count. See docs/performance.md, "The
/// online fast path".
class OnlineSp final : public OnlineAlgorithm {
 public:
  explicit OnlineSp(const topo::Topology& topo) : OnlineAlgorithm(topo) {}

  std::string_view name() const override { return "SP"; }

 protected:
  AdmissionDecision try_admit(const nfv::Request& request) override;

 private:
  /// Per-request scratch, reused across requests: the links eligible at the
  /// request's bandwidth, the trees from the source and the servers past
  /// the compute gate, and the marks for pricing and assembling candidate
  /// trees.
  std::vector<std::uint8_t> mask_;
  graph::TreeTable table_;
  VertexMarks marks_;
};

}  // namespace nfvm::core
