#include "core/online_view.h"

#include <utility>

#include "graph/sp_engine.h"
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

std::size_t OnlineWeightedView::patch(const nfv::Footprint& footprint) {
  std::size_t changed = 0;
  for (const auto& [e, amount] : footprint.bandwidth) {
    const double w = edge_weight_(e);
    if (view_.weight(e) != w) {
      view_.set_weight(e, w);
      ++changed;
    }
  }
  return changed;
}

void OnlineWeightedView::apply_allocate(const nfv::Footprint& footprint) {
  NFVM_SPAN("online/view_patch");
  const std::size_t changed = patch(footprint);
  ++patches_applied_;
  NFVM_COUNTER_INC("core.online.view_patches");
  churn_ewma_ += 0.125 * (static_cast<double>(changed) - churn_ewma_);
  // Rebuild mode bypasses the store, so drop it: a later flip back to
  // incremental then starts cold instead of diffing a long-stale snapshot.
  if (!policy_incremental()) store_.clear();
}

void OnlineWeightedView::apply_release(const nfv::Footprint& footprint) {
  NFVM_SPAN("online/view_release");
  // Residuals grew back: some weights fall and some edges become eligible
  // again. The store sees both as decreases at its next diff and repairs.
  patch(footprint);
}

bool OnlineWeightedView::policy_incremental() const noexcept {
  if (policy_ == ViewPolicy::kForceIncremental) return true;
  const std::size_t m = view_.num_edges();
  if (m < kPolicyMinEdges) return false;
  return churn_ewma_ <= kPolicyMaxChurnFraction * static_cast<double>(m);
}

void OnlineWeightedView::build_eligibility_mask(const nfv::ResourceState& state,
                                                double b) {
  const std::size_t m = topo_->graph.num_edges();
  mask_.resize(m);
  for (graph::EdgeId e = 0; e < m; ++e) {
    mask_[e] = nfv::edge_eligible(state, topo_->graph, e, b) ? 1 : 0;
  }
}

std::vector<std::shared_ptr<const graph::ShortestPaths>>
OnlineWeightedView::trees_for(const nfv::ResourceState& state,
                              std::span<const graph::VertexId> sources,
                              double b) {
  NFVM_SPAN("online/view_trees");
  build_eligibility_mask(state, b);
  if (policy_incremental()) {
    NFVM_COUNTER_INC("core.online.view_policy_incremental");
    return store_.trees(view_, sources, mask_);
  }
  // Rebuild mode: one batched masked SSSP for every slot. Bit-identical to
  // the store, whose trees equal a fresh masked Dijkstra by construction.
  NFVM_COUNTER_INC("core.online.view_policy_rebuild");
  std::vector<graph::ShortestPaths> batch =
      graph::batch_dijkstra(view_, sources, mask_);
  std::vector<std::shared_ptr<const graph::ShortestPaths>> trees(sources.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    trees[i] = std::make_shared<const graph::ShortestPaths>(std::move(batch[i]));
  }
  return trees;
}

}  // namespace nfvm::core
