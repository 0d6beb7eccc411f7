// Extension E2: batch admission planning.
//
// When requests are collected per planning window, the order Appro_Multi_Cap
// admits them changes what fits. This bench compares the ordering heuristics
// of core/batch_planner.h on a contended network (tight link capacities).
#include "bench_common.h"
#include "core/batch_planner.h"

int main() {
  using namespace nfvm;
  const std::size_t batch = bench::offline_requests_per_point(120);

  util::Rng rng(31);
  topo::WaxmanOptions wo;
  wo.target_mean_degree = 4.0;
  wo.capacities.max_bandwidth_mbps = 1200.0;  // tight: contention guaranteed
  const topo::Topology topo = topo::make_waxman(80, rng, wo);
  const core::LinearCosts costs = core::random_costs(topo, rng);

  util::Rng workload(32);
  sim::RequestGenerator gen(topo, workload);
  const std::vector<nfv::Request> requests = gen.sequence(batch);

  std::cout << "# Extension E2: batch-order heuristics (" << batch
            << " requests, tight 80-node network)\n";

  util::Table table({"order", "admitted", "rejected", "total_cost", "bw_util"});
  const std::pair<core::BatchOrder, const char*> orders[] = {
      {core::BatchOrder::kArrival, "arrival"},
      {core::BatchOrder::kFewestDestinationsFirst, "fewest_dests_first"},
      {core::BatchOrder::kSmallestDemandFirst, "smallest_demand_first"},
      {core::BatchOrder::kLargestDemandFirst, "largest_demand_first"},
  };
  for (const auto& [order, label] : orders) {
    core::BatchPlanOptions opts;
    opts.order = order;
    const core::BatchPlanResult r = core::plan_batch(topo, costs, requests, opts);
    table.begin_row()
        .add(label)
        .add(r.num_admitted)
        .add(r.num_rejected)
        .add(r.total_cost, 1)
        .add(r.final_bandwidth_utilization, 3);
  }
  bench::finish("ext_batch", table);
  return 0;
}
