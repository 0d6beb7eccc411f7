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
// * `auxiliary_sweep` — that same combination loop with any Steiner solver
//   in the auxiliary graphs. With graph::kmb_steiner it is Appro_Multi's
//   reference engine swept exhaustively; ablation A4 runs it with KMB and
//   with Takahashi–Matsuyama.
#pragma once

#include <span>

#include "core/appro_multi.h"
#include "graph/steiner.h"

namespace nfvm::reference {

struct ExactOfflineOptions {
  /// K for exact_auxiliary and auxiliary_sweep (exact_one_server is K = 1
  /// by definition).
  std::size_t max_servers = 1;
  /// Guard: the Dreyfus-Wagner DP is Theta(3^t); exact_one_server and
  /// exact_auxiliary reject instances with more terminals than this
  /// (|D| + 1 per auxiliary graph). auxiliary_sweep ignores it.
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

/// A Steiner solver for one auxiliary graph.
using AuxSteiner = graph::SteinerResult (*)(const graph::Graph&,
                                            std::span<const graph::VertexId>);

/// Every combination of <= options.max_servers eligible servers, in
/// Appro_Multi's enumeration order, each auxiliary graph solved by
/// `steiner`; the first cheapest tree is realized. No delay or capacity
/// check follows the realization, so with graph::kmb_steiner the result
/// matches Appro_Multi's reference engine only when the request has no
/// delay bound and the cheapest tree fits the residuals. Throws
/// std::invalid_argument when max_servers is 0.
core::OfflineSolution auxiliary_sweep(const topo::Topology& topo,
                                      const core::LinearCosts& costs,
                                      const nfv::Request& request,
                                      const ExactOfflineOptions& options,
                                      AuxSteiner steiner);

}  // namespace nfvm::reference
