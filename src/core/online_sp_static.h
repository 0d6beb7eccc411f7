// SP_static - the load-blind reading of the paper's SP baseline.
//
// Routes are fixed once on the empty network: unit-weight shortest paths
// from every switch, never recomputed as load accumulates. A request is
// admitted iff the cheapest fixed (source -> server -> destinations)
// structure still fits the residual resources; there is no rerouting around
// saturated links. The adaptive reading (recompute on the residual graph,
// class OnlineSp) is strictly stronger; the throughput the paper reports for
// "SP" matches this static variant (see EXPERIMENTS.md, Fig. 8/9 notes).
#pragma once

#include "core/online.h"
#include "graph/sp_engine.h"

namespace nfvm::core {

class OnlineSpStatic final : public OnlineAlgorithm {
 public:
  explicit OnlineSpStatic(const topo::Topology& topo) : OnlineAlgorithm(topo) {}

  std::string_view name() const override { return "SP_static"; }

 protected:
  AdmissionDecision try_admit(const nfv::Request& request) override;

 private:
  /// Unit-weight shortest paths on the full topology by root switch, each
  /// computed on first use and kept for the lifetime of the run (the
  /// topology graph never mutates).
  graph::TreeTable table_;
  VertexMarks marks_;  // scratch for pricing and assembling candidate trees
};

}  // namespace nfvm::core
