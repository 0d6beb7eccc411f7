// Link-disjoint backup pseudo-multicast trees (1+1 protection).
//
// For a request already carried by a primary tree, compute a second
// pseudo-multicast tree that shares no link with the primary: if any primary
// link fails, traffic switches to the backup. Implemented by masking the
// primary's links (their residual bandwidth is zeroed in a scratch resource
// view) and re-running Appro_Multi_Cap, so the backup honors every other
// constraint (capacities, tables, delay bounds) against the supplied
// residual state.
//
// Feasibility caveat: a destination whose every route crosses a bridge of
// the topology (graph/bridges.h) cannot be protected; the computation then
// rejects with the standard unreachable reason.
#pragma once

#include "core/appro_multi.h"

namespace nfvm::core {

struct BackupOptions {
  /// K for the backup tree (defaults to the paper's 3).
  std::size_t max_servers = 3;
  /// Residual state the backup must additionally fit into (nullptr = only
  /// the disjointness mask applies, on the full capacities).
  const nfv::ResourceState* resources = nullptr;
};

/// Computes a backup tree link-disjoint from `primary`. The same server may
/// host the chain in both trees (node-disjointness is not attempted).
/// Throws std::invalid_argument when `primary` references unknown links.
OfflineSolution compute_backup_tree(const topo::Topology& topo,
                                    const LinearCosts& costs,
                                    const nfv::Request& request,
                                    const PseudoMulticastTree& primary,
                                    const BackupOptions& options = {});

/// True iff the two trees share no link.
bool link_disjoint(const PseudoMulticastTree& a, const PseudoMulticastTree& b);

}  // namespace nfvm::core
