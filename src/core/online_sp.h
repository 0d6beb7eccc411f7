// SP - the baseline online heuristic of the paper's evaluation (Section
// VI-A): prune links/servers without enough residual resources, give every
// remaining link the same unit weight, and for each candidate server take
// the shortest path s_k -> v plus a shortest-path tree rooted at v spanning
// the destinations; the candidate using the fewest link traversals wins.
// No admission thresholds: SP admits whenever some candidate is feasible.
#pragma once

#include "core/online.h"
#include "core/online_view.h"

namespace nfvm::core {

/// The server scan runs against a persistent working view that keeps one
/// repaired shortest-path tree per server, prices every candidate with one
/// parent walk, and assembles pseudo-trees only for the cost-prune
/// survivors. Decisions are bit-identical at any thread count. See
/// docs/performance.md, "The online fast path".
class OnlineSp final : public OnlineAlgorithm {
 public:
  explicit OnlineSp(const topo::Topology& topo);

  std::string_view name() const override { return "SP"; }

 protected:
  AdmissionDecision try_admit(const nfv::Request& request) override;
  void after_allocate(const nfv::Footprint& footprint) override;
  void after_release(const nfv::Footprint& footprint) override;

 private:
  /// SP's working weights are the physical link weights (constant), so only
  /// eligibility flips ever reach the stored server trees.
  OnlineWeightedView view_;
  /// Scratch for pricing and assembling candidate trees.
  VertexMarks marks_;
};

}  // namespace nfvm::core
