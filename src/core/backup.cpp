#include "core/backup.h"

#include <algorithm>
#include <set>

namespace nfvm::core {

bool link_disjoint(const PseudoMulticastTree& a, const PseudoMulticastTree& b) {
  std::set<graph::EdgeId> edges_a;
  for (const auto& [e, mult] : a.edge_uses) edges_a.insert(e);
  for (const auto& [e, mult] : b.edge_uses) {
    if (edges_a.count(e) != 0) return false;
  }
  return true;
}

OfflineSolution compute_backup_tree(const topo::Topology& topo,
                                    const LinearCosts& costs,
                                    const nfv::Request& request,
                                    const PseudoMulticastTree& primary,
                                    const BackupOptions& options) {
  for (const auto& [e, mult] : primary.edge_uses) {
    if (!topo.graph.has_edge(e)) {
      throw std::invalid_argument("compute_backup_tree: primary uses unknown link");
    }
  }

  // Scratch resource view: start from the caller's residuals (or the full
  // capacities) and zero out the primary's links so Appro_Multi_Cap's
  // pruning removes them.
  nfv::ResourceState masked =
      options.resources != nullptr ? *options.resources : nfv::ResourceState(topo);
  nfv::Footprint mask;
  for (const auto& [e, mult] : primary.edge_uses) {
    mask.bandwidth.emplace_back(e, masked.residual_bandwidth(e));
  }
  masked.allocate(mask);

  ApproMultiOptions opts;
  opts.max_servers = options.max_servers;
  opts.resources = &masked;
  OfflineSolution sol = appro_multi(topo, costs, request, opts);
  if (sol.admitted && !link_disjoint(primary, sol.tree)) {
    // Cannot happen (masked links are pruned); guard against regressions.
    sol.admitted = false;
    sol.reject_reason = "internal error: backup shares a link with the primary";
  }
  return sol;
}

}  // namespace nfvm::core
