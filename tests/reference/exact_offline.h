// Test-only exact solvers for small NFV-multicast instances.
//
// These are exponential-time oracles the test suite and bench_ratio_measured
// compare the approximation algorithms against; they are NOT meant for
// production-size networks.
//
// * `exact_one_server` — the true optimum for K = 1. The one-server problem
//   decomposes exactly: pick the server v minimizing
//     sp_cost(s, v) + c_v(SC) + exactSteiner({v} ∪ D)
//   in the c_e * b_k weighted graph, because the unprocessed path and the
//   processed tree are charged independently per traversal.
// * `exact_auxiliary` — the optimum of Algorithm 1's auxiliary-graph
//   formulation for any K: enumerate every server combination of size <= K
//   and solve each auxiliary graph with the Dreyfus-Wagner DP. Appro_Multi's
//   reported cost is within 2x of this value (the KMB guarantee), which the
//   test suite verifies directly.
#pragma once

#include "core/appro_multi.h"

namespace nfvm::reference {

struct ExactOfflineOptions {
  /// K for exact_auxiliary (exact_one_server is K = 1 by definition).
  std::size_t max_servers = 1;
  /// Guard: the Dreyfus-Wagner DP is Theta(3^t); reject instances with more
  /// terminals than this (|D| + 1 per auxiliary graph).
  std::size_t max_terminals = 12;
  /// Non-null enables capacity-aware pruning, mirroring Appro_Multi_Cap.
  const nfv::ResourceState* resources = nullptr;
};

/// True optimum for the one-server (K = 1) problem. Throws
/// std::invalid_argument when |D| + 1 exceeds options.max_terminals.
core::OfflineSolution exact_one_server(const topo::Topology& topo,
                                       const core::LinearCosts& costs,
                                       const nfv::Request& request,
                                       const ExactOfflineOptions& options = {});

/// Optimum of the auxiliary-graph formulation with combinations of size
/// <= options.max_servers (includes the paper's zero-cost source-edge
/// correction, like Appro_Multi). Throws std::invalid_argument on guard
/// violations.
core::OfflineSolution exact_auxiliary(const topo::Topology& topo,
                                      const core::LinearCosts& costs,
                                      const nfv::Request& request,
                                      const ExactOfflineOptions& options = {});

}  // namespace nfvm::reference
