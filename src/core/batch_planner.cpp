#include "core/batch_planner.h"

#include <algorithm>
#include <numeric>

namespace nfvm::core {
namespace {

double demand_weight(const nfv::Request& r) {
  return r.bandwidth_mbps * static_cast<double>(r.destinations.size() + 1);
}

std::vector<std::size_t> plan_order(std::span<const nfv::Request> requests,
                                    BatchOrder order) {
  std::vector<std::size_t> idx(requests.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  switch (order) {
    case BatchOrder::kArrival:
      break;
    case BatchOrder::kFewestDestinationsFirst:
      std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        return requests[a].destinations.size() < requests[b].destinations.size();
      });
      break;
    case BatchOrder::kSmallestDemandFirst:
      std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        return demand_weight(requests[a]) < demand_weight(requests[b]);
      });
      break;
    case BatchOrder::kLargestDemandFirst:
      std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        return demand_weight(requests[a]) > demand_weight(requests[b]);
      });
      break;
  }
  return idx;
}

}  // namespace

BatchPlanResult plan_batch(const topo::Topology& topo, const LinearCosts& costs,
                           std::span<const nfv::Request> requests,
                           const BatchPlanOptions& options) {
  BatchPlanResult result;
  result.admitted.assign(requests.size(), false);
  result.trees.resize(requests.size());

  nfv::ResourceState state(topo);
  ApproMultiOptions appro_opts;
  appro_opts.max_servers = options.max_servers;
  appro_opts.resources = &state;

  for (std::size_t i : plan_order(requests, options.order)) {
    OfflineSolution sol = appro_multi(topo, costs, requests[i], appro_opts);
    if (!sol.admitted) {
      ++result.num_rejected;
      continue;
    }
    state.allocate(sol.tree.footprint(requests[i], topo.graph));
    ++result.num_admitted;
    result.total_cost += sol.tree.cost;
    result.admitted[i] = true;
    result.trees[i] = std::move(sol.tree);
  }

  double util = 0.0;
  for (graph::EdgeId e = 0; e < state.num_links(); ++e) {
    util += state.bandwidth_utilization(e);
  }
  result.final_bandwidth_utilization =
      state.num_links() == 0 ? 0.0 : util / static_cast<double>(state.num_links());
  return result;
}

}  // namespace nfvm::core
