// Appro_Multi (paper Algorithm 1) and its capacitated variant
// Appro_Multi_Cap (Section IV-C).
//
// For each combination of at most K eligible servers, build the auxiliary
// graph G_k^i, find a KMB Steiner tree spanning the virtual source and all
// destinations, and keep the cheapest result over all combinations. The
// returned pseudo-multicast tree routes every destination's traffic through
// one of the chosen servers. Approximation ratio: 2K (Theorem 1).
//
// Appro_Multi_Cap is the same algorithm run on the subgraph of links with
// residual bandwidth >= b_k and servers with residual computing >= the
// chain demand; pass `resources` to enable it.
#pragma once

#include <cstddef>
#include <limits>
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
  /// via lower bounds or as dominated, summed over its passes (0 for the
  /// legacy sweep and for Alg_One_Server).
  std::size_t combinations_pruned = 0;
  /// The share of combinations_pruned skipped as dominated (shared engine
  /// only; see core/combo_search.h).
  std::size_t combinations_dominated = 0;
};

struct ApproMultiOptions {
  /// K: maximum number of servers implementing SC_k (paper default 3).
  std::size_t max_servers = 3;
  /// Non-null enables the capacitated variant (Appro_Multi_Cap).
  const nfv::ResourceState* resources = nullptr;
  /// Safety valve for pathological |V_S| choose K blow-ups: the number of
  /// combinations *evaluated* per request, counted identically in both
  /// search modes (branch-and-bound counts evaluator calls across every
  /// re-search pass; pruned combinations, dominated ones included, are free
  /// and do not consume budget). The search stops deterministically once
  /// the budget is spent.
  /// When the valve actually binds, the two modes may legitimately return
  /// different results — they spend the budget on different combinations.
  std::size_t max_combinations = std::numeric_limits<std::size_t>::max();
  /// Evaluation engine for the combination sweep:
  ///  * kReference (default) — run full KMB in every auxiliary graph
  ///    (|terminals| Dijkstras per combination; paper-literal, Algorithm 1
  ///    step 7).
  ///  * kSharedDijkstra — precompute Dijkstras from the source, every
  ///    destination and every eligible server once per request, then
  ///    evaluate each combination's metric closure arithmetically
  ///    (virtual edges and the zero-cost star are composed from the shared
  ///    tables). Produces identical trees whenever shortest paths are
  ///    unique (ties may resolve differently, still within the KMB
  ///    guarantee) and is ~|D_k| times faster on large sweeps. Under
  ///    branch-and-bound it also skips dominated combinations
  ///    (core/combo_search.h), so it evaluates fewer combinations than the
  ///    reference engine for the same decision.
  enum class Engine { kReference, kSharedDijkstra };
  Engine engine = Engine::kReference;
  /// Combination-search strategy:
  ///  * kBranchAndBound (default) — deterministic branch-and-bound over
  ///    combination prefixes with admissible lower bounds
  ///    (core/combo_search.h). Returns the same cost and the same argmin
  ///    combination as the exhaustive sweep — bit-identical decisions at
  ///    any thread count — while evaluating a fraction of the
  ///    combinations.
  ///  * kLegacySweep — materialize and evaluate every combination, then
  ///    sort (the original implementation; kept as the equivalence
  ///    baseline).
  enum class Search { kLegacySweep, kBranchAndBound };
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
