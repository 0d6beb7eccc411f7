// Appro_Multi (paper Algorithm 1) and its capacitated variant
// Appro_Multi_Cap (Section IV-C).
//
// For each combination of at most K eligible servers, find a KMB Steiner
// tree spanning the virtual source and all destinations in the auxiliary
// graph G_k^i, and keep the cheapest result over all combinations. The
// returned pseudo-multicast tree routes every destination's traffic through
// one of the chosen servers. Approximation ratio: 2K (Theorem 1).
//
// Each combination's tree comes from shortest-path tables computed once per
// request (core/shared_closure.h), and a branch-and-bound search
// (core/combo_search.h) returns the combination an exhaustive sweep would
// rank first while evaluating a fraction of them. The trees are those of
// KMB run in each materialized G_k^i whenever shortest paths are unique;
// tests/reference keeps that engine and the sweep as oracles.
//
// Appro_Multi_Cap is the same algorithm run on the subgraph of links with
// residual bandwidth >= b_k and servers with residual computing >= the
// chain demand; pass `resources` to enable it.
#pragma once

#include <cstddef>
#include <string>

#include "core/cost_model.h"
#include "core/pseudo_tree.h"
#include "nfv/request.h"
#include "nfv/resources.h"
#include "topology/topology.h"

namespace nfvm::core {

/// Result of a single-request (offline) algorithm.
struct OfflineSolution {
  bool admitted = false;
  /// Human-readable reason when admitted == false.
  std::string reject_reason;
  /// Valid iff admitted.
  PseudoMulticastTree tree;
  /// Server combinations (Appro_Multi) or candidate servers
  /// (Alg_One_Server) evaluated.
  std::size_t combinations_explored = 0;
  /// Combinations the branch-and-bound search discarded without evaluating,
  /// via lower bounds or as dominated, summed over its passes (0 for
  /// Alg_One_Server).
  std::size_t combinations_pruned = 0;
  /// The share of combinations_pruned skipped as dominated (see
  /// core/combo_search.h).
  std::size_t combinations_dominated = 0;
};

struct ApproMultiOptions {
  /// K: maximum number of servers implementing SC_k (paper default 3).
  std::size_t max_servers = 3;
  /// Non-null enables the capacitated variant (Appro_Multi_Cap).
  const nfv::ResourceState* resources = nullptr;
  /// perfbench copies these two from sim::OfflineBatchOptions, so they keep
  /// their names with one value each; nothing reads them. The paper-literal
  /// engine and the exhaustive sweep are test oracles now
  /// (tests/reference/appro_multi_reference.h).
  enum class Engine { kSharedDijkstra };
  Engine engine = Engine::kSharedDijkstra;
  enum class Search { kBranchAndBound };
  Search search = Search::kBranchAndBound;
  /// Opt-in beam mode: restrict the sweep to the `beam_width` most central
  /// eligible servers (see beam_server_pool). 0 (default) or >= |V_S|
  /// disables the restriction and keeps the search exact; smaller widths
  /// trade optimality within the 2K guarantee for speed. Pools are nested
  /// in beam_width, so the returned cost is non-increasing in the width.
  std::size_t beam_width = 0;
};

/// Runs Algorithm 1 (or its capacitated variant) for one request.
/// Throws std::invalid_argument for malformed inputs (bad request, zero K,
/// cost tables of the wrong size).
OfflineSolution appro_multi(const topo::Topology& topo, const LinearCosts& costs,
                            const nfv::Request& request,
                            const ApproMultiOptions& options = {});

}  // namespace nfvm::core
