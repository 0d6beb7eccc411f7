// SP - the baseline online heuristic of the paper's evaluation (Section
// VI-A): prune links/servers without enough residual resources, give every
// remaining link the same unit weight, and for each candidate server take
// the shortest path s_k -> v plus a shortest-path tree rooted at v spanning
// the destinations; the candidate using the fewest link traversals wins.
// No admission thresholds: SP admits whenever some candidate is feasible.
#pragma once

#include <optional>

#include "core/online.h"
#include "core/online_view.h"

namespace nfvm::core {

struct OnlineSpOptions {
  /// Admission fast path: evaluate the server scan against a persistent
  /// working view that keeps one repaired shortest-path tree per server
  /// instead of filtering the graph and running per-server Dijkstras from
  /// scratch each request. Bit-identical decisions to the rebuild path at
  /// any thread count. See docs/performance.md, "The online fast path".
  bool incremental_view = true;
};

class OnlineSp final : public OnlineAlgorithm {
 public:
  explicit OnlineSp(const topo::Topology& topo);
  OnlineSp(const topo::Topology& topo, const OnlineSpOptions& options);

  std::string_view name() const override { return "SP"; }

 protected:
  AdmissionDecision try_admit(const nfv::Request& request) override;
  void after_allocate(const nfv::Footprint& footprint) override;
  void after_release(const nfv::Footprint& footprint) override;

 private:
  AdmissionDecision try_admit_rebuild(const nfv::Request& request);
  AdmissionDecision try_admit_fast(const nfv::Request& request);

  /// Engaged iff options.incremental_view. SP's working weights are the
  /// physical link weights (constant), so only eligibility flips ever reach
  /// the stored server trees.
  std::optional<OnlineWeightedView> view_;
};

}  // namespace nfvm::core
