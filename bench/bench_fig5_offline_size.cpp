// Figure 5 (a)-(f): operational cost and running time of Appro_Multi (K=3)
// vs Alg_One_Server on GT-ITM-like networks of 50..250 switches, for
// destination ratios Dmax/|V| in {0.05, 0.10, 0.20}.
//
// Paper's reported shape: Appro_Multi's cost is ~70-85% of Alg_One_Server's
// and the gap widens with network size; Appro_Multi is slightly slower.
#include "bench_common.h"

int main() {
  using namespace nfvm;
  const std::size_t per_point = bench::offline_requests_per_point(25);

  std::cout << "# Figure 5: offline cost & running time vs network size\n";
  std::cout << "# requests per data point: " << per_point
            << " (override with NFVM_BENCH_REQUESTS)\n";
  std::cout << "# cost columns: mean operational cost; time columns: mean ms per request\n";

  util::Table table({"ratio", "n", "appro_cost", "one_srv_cost", "cost_ratio",
                     "appro_ms", "one_srv_ms", "appro_servers"});

  for (double ratio : {0.05, 0.10, 0.20}) {
    for (std::size_t n : {50u, 100u, 150u, 200u, 250u}) {
      util::Rng rng(1000 + n);
      const topo::Topology topo = bench::make_sweep_topology(n, rng);
      const core::LinearCosts costs = core::random_costs(topo, rng);

      sim::RequestGenOptions gen_opts;
      gen_opts.min_dest_ratio = ratio;
      gen_opts.max_dest_ratio = ratio;
      util::Rng workload(2000 + n + static_cast<std::uint64_t>(ratio * 1000));
      sim::RequestGenerator gen(topo, workload, gen_opts);
      const std::vector<nfv::Request> requests = gen.sequence(per_point);

      const bench::OfflineStats appro = bench::run_offline_batch(
          requests, [&](const nfv::Request& r) {
            core::ApproMultiOptions opts;
            opts.max_servers = 3;
            return core::appro_multi(topo, costs, r, opts);
          });
      const bench::OfflineStats one = bench::run_offline_batch(
          requests,
          [&](const nfv::Request& r) { return core::alg_one_server(topo, costs, r); });

      table.begin_row()
          .add(ratio, 2)
          .add(n)
          .add(appro.cost.mean(), 2)
          .add(one.cost.mean(), 2)
          .add(one.cost.mean() > 0 ? appro.cost.mean() / one.cost.mean() : 0.0, 3)
          .add(appro.time_ms.mean(), 2)
          .add(one.time_ms.mean(), 2)
          .add(appro.servers_used.mean(), 2);
    }
  }
  bench::finish("fig5_offline_size", table);
  return 0;
}
