#include "core/online_view.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace nfvm::core {

OnlineWeightedView::OnlineWeightedView(const topo::Topology& topo,
                                       EdgeWeightFn edge_weight)
    : topo_(&topo),
      edge_weight_(std::move(edge_weight)),
      view_(topo.graph.num_vertices()),
      store_(topo.servers) {
  for (graph::EdgeId e = 0; e < topo_->graph.num_edges(); ++e) {
    const graph::Edge& ed = topo_->graph.edge(e);
    view_.add_edge(ed.u, ed.v, edge_weight_(e));
  }
  NFVM_COUNTER_INC("core.online.view_rebuilds");
}

void OnlineWeightedView::rebuild() {
  NFVM_SPAN("online/view_rebuild");
  for (graph::EdgeId e = 0; e < view_.num_edges(); ++e) {
    const double w = edge_weight_(e);
    if (view_.weight(e) != w) view_.set_weight(e, w);
  }
  store_.clear();
  NFVM_COUNTER_INC("core.online.view_rebuilds");
}

void OnlineWeightedView::patch(const nfv::Footprint& footprint) {
  for (const auto& [e, amount] : footprint.bandwidth) {
    const double w = edge_weight_(e);
    if (view_.weight(e) != w) view_.set_weight(e, w);
  }
}

void OnlineWeightedView::apply_allocate(const nfv::Footprint& footprint) {
  NFVM_SPAN("online/view_patch");
  patch(footprint);
  NFVM_COUNTER_INC("core.online.view_patches");
}

void OnlineWeightedView::apply_release(const nfv::Footprint& footprint) {
  NFVM_SPAN("online/view_release");
  // Residuals grew back: some weights fall and some edges become eligible
  // again. The store sees both as decreases at its next diff and repairs.
  patch(footprint);
}

const graph::SpTreeStore& OnlineWeightedView::trees_for(
    const nfv::ResourceState& state, std::span<const graph::VertexId> sources,
    double b) {
  nfv::fill_eligibility_mask(state, topo_->graph, b, mask_);
  store_.update(view_, sources, mask_);
  return store_;
}

}  // namespace nfvm::core
