// Figure 7 (a)-(b): operational cost and running time of Appro_Multi_Cap
// (the capacity-aware variant) vs the uncapacitated Appro_Multi, at
// Dmax/|V| = 0.2, network sizes 50..250.
//
// The capacitated run admits a stream of requests and charges each admitted
// footprint, so later requests see pruned links/servers. To make capacity
// pressure visible at benchmark scale we tighten link capacities to
// U[1000, 2500] Mbps (the paper averages over 1,000 requests instead; the
// shape - capacitated cost above uncapacitated cost, occasional rejections -
// is preserved).
#include "bench_common.h"

int main() {
  using namespace nfvm;
  const std::size_t per_point = bench::offline_requests_per_point(30);

  std::cout << "# Figure 7: Appro_Multi_Cap vs Appro_Multi (ratio 0.2, tight links)\n";
  std::cout << "# requests per data point: " << per_point
            << " (override with NFVM_BENCH_REQUESTS)\n";

  util::Table table({"n", "cap_cost", "uncap_cost", "cost_ratio", "cap_admitted",
                     "of", "cap_ms", "uncap_ms"});

  for (std::size_t n : {50u, 100u, 150u, 200u, 250u}) {
    util::Rng rng(1000 + n);
    topo::WaxmanOptions wopts;
    wopts.target_mean_degree = 4.0;
    wopts.capacities.min_bandwidth_mbps = 1000.0;
    wopts.capacities.max_bandwidth_mbps = 2500.0;
    const topo::Topology topo = topo::make_waxman(n, rng, wopts);
    const core::LinearCosts costs = core::random_costs(topo, rng);

    sim::RequestGenOptions gen_opts;
    gen_opts.min_dest_ratio = 0.2;
    gen_opts.max_dest_ratio = 0.2;
    util::Rng workload(2000 + n);
    sim::RequestGenerator gen(topo, workload, gen_opts);
    const std::vector<nfv::Request> requests = gen.sequence(per_point);

    // Uncapacitated: every request sees the empty network.
    const bench::OfflineStats uncap = bench::run_offline_batch(
        requests, [&](const nfv::Request& r) {
          core::ApproMultiOptions opts;
          opts.max_servers = 3;
          return core::appro_multi(topo, costs, r, opts);
        });

    // Capacitated: sequential admission with footprint charging.
    nfv::ResourceState state(topo);
    const bench::OfflineStats cap = bench::run_offline_batch(
        requests, [&](const nfv::Request& r) {
          core::ApproMultiOptions opts;
          opts.max_servers = 3;
          opts.resources = &state;
          core::OfflineSolution sol = core::appro_multi(topo, costs, r, opts);
          if (sol.admitted) state.allocate(sol.tree.footprint(r));
          return sol;
        });

    table.begin_row()
        .add(n)
        .add(cap.cost.mean(), 2)
        .add(uncap.cost.mean(), 2)
        .add(uncap.cost.mean() > 0 ? cap.cost.mean() / uncap.cost.mean() : 0.0, 3)
        .add(cap.admitted)
        .add(requests.size())
        .add(cap.time_ms.mean(), 2)
        .add(uncap.time_ms.mean(), 2);
  }
  bench::finish("fig7_capacitated", table);
  return 0;
}
