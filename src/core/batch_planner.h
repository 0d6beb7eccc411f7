// Batch admission planning.
//
// The paper treats requests either singly (offline) or in arrival order
// (online). An operator that collects requests per planning window can do
// better by choosing the *order* in which Appro_Multi_Cap admits them -
// small/compact requests first leave more residual headroom. This module
// runs a whole batch through the capacitated algorithm under a configurable
// ordering heuristic and reports per-request outcomes.
#pragma once

#include <span>
#include <vector>

#include "core/appro_multi.h"

namespace nfvm::core {

enum class BatchOrder {
  /// Process in the given order (arrival order).
  kArrival,
  /// Fewest destinations first (small trees first).
  kFewestDestinationsFirst,
  /// Smallest bandwidth-times-destinations product first (lightest load).
  kSmallestDemandFirst,
  /// Heaviest first (serve big customers while resources last).
  kLargestDemandFirst,
};

struct BatchPlanOptions {
  BatchOrder order = BatchOrder::kArrival;
  /// K for the underlying Appro_Multi_Cap calls.
  std::size_t max_servers = 3;
  /// Evaluation engine forwarded to Appro_Multi_Cap (kSharedDijkstra makes
  /// large batches ~|D| times faster, see ApproMultiOptions::Engine).
  ApproMultiOptions::Engine engine = ApproMultiOptions::Engine::kReference;
};

struct BatchPlanResult {
  std::size_t num_admitted = 0;
  std::size_t num_rejected = 0;
  /// Sum of admitted trees' costs.
  double total_cost = 0.0;
  /// Outcome per request, aligned with the *input* order.
  std::vector<bool> admitted;
  /// Admitted trees, aligned with the input order (empty tree if rejected).
  std::vector<PseudoMulticastTree> trees;
  /// Mean link-bandwidth utilization after the batch.
  double final_bandwidth_utilization = 0.0;
};

/// Plans a batch against fresh resource state (the topology's full
/// capacities). Requests are validated; throws std::invalid_argument on the
/// first malformed one.
BatchPlanResult plan_batch(const topo::Topology& topo, const LinearCosts& costs,
                           std::span<const nfv::Request> requests,
                           const BatchPlanOptions& options = {});

}  // namespace nfvm::core
