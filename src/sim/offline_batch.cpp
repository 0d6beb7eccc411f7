#include "sim/offline_batch.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace nfvm::sim {

std::vector<OfflineRequestResult> run_offline_batch(
    const topo::Topology& topo, const core::LinearCosts& costs,
    std::span<const nfv::Request> requests,
    const OfflineBatchOptions& options) {
  NFVM_SPAN("sim/run_offline_batch");
  NFVM_COUNTER_ADD("sim.offline_batch.requests", requests.size());
  return parallel_map(requests.size(), [&](std::size_t i) {
    const nfv::Request& request = requests[i];
    OfflineRequestResult result;
    result.appro_multi.reserve(options.max_servers_sweep);
    for (std::size_t k = 1; k <= options.max_servers_sweep; ++k) {
      core::ApproMultiOptions ao;
      ao.max_servers = k;
      ao.beam_width = options.beam_width;
      result.appro_multi.push_back(core::appro_multi(topo, costs, request, ao));
    }
    result.one_server = core::alg_one_server(topo, costs, request);
    result.chain_split = core::chain_split_multicast(topo, costs, request);
    return result;
  });
}

}  // namespace nfvm::sim
