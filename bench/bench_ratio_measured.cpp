// Measured approximation ratios (Theorem 1 validation).
//
// On small random instances where the exact optimum is computable
// (Dreyfus-Wagner), measure:
//  * Appro_Multi(K=1) vs the true one-server optimum      (bound: 2)
//  * Alg_One_Server  vs the true one-server optimum       (bound: ~3)
//  * Appro_Multi(K)   vs the exact auxiliary optimum       (bound: 2, any K)
// The table reports mean and worst observed ratios; all must sit within the
// proved bounds, and typically far below them.
#include "bench_common.h"
#include "reference/exact_offline.h"

int main() {
  using namespace nfvm;
  const std::size_t instances =
      static_cast<std::size_t>(util::env_int("NFVM_BENCH_REQUESTS", 25));

  std::cout << "# Measured approximation ratios on " << instances
            << " random 16-node instances (3 destinations)\n";

  util::RunningStats appro_vs_opt1;
  util::RunningStats baseline_vs_opt1;
  util::RunningStats approk2_vs_aux2;

  for (std::size_t i = 0; i < instances; ++i) {
    util::Rng rng(9000 + i);
    const topo::Topology topo = topo::make_waxman(16, rng);
    const core::LinearCosts costs = core::random_costs(topo, rng);
    nfv::Request request;
    request.id = i;
    request.bandwidth_mbps = rng.uniform_real(50, 200);
    request.chain = nfv::random_service_chain(rng, 1, 3);
    const auto picks = rng.sample_without_replacement(16, 4);
    request.source = static_cast<graph::VertexId>(picks[0]);
    for (std::size_t j = 1; j < picks.size(); ++j) {
      request.destinations.push_back(static_cast<graph::VertexId>(picks[j]));
    }

    const core::OfflineSolution opt1 = reference::exact_one_server(topo, costs, request);
    core::ApproMultiOptions a1;
    a1.max_servers = 1;
    const core::OfflineSolution appro1 = core::appro_multi(topo, costs, request, a1);
    const core::OfflineSolution base = core::alg_one_server(topo, costs, request);
    reference::ExactOfflineOptions e2;
    e2.max_servers = 2;
    const core::OfflineSolution aux2 = reference::exact_auxiliary(topo, costs, request, e2);
    core::ApproMultiOptions a2;
    a2.max_servers = 2;
    const core::OfflineSolution appro2 = core::appro_multi(topo, costs, request, a2);
    if (!opt1.admitted || !appro1.admitted || !base.admitted || !aux2.admitted ||
        !appro2.admitted) {
      continue;
    }
    appro_vs_opt1.add(appro1.tree.cost / opt1.tree.cost);
    baseline_vs_opt1.add(base.tree.cost / opt1.tree.cost);
    approk2_vs_aux2.add(appro2.tree.cost / aux2.tree.cost);
  }

  util::Table table({"ratio", "mean", "max", "proved_bound"});
  table.begin_row()
      .add("appro_multi_K1/OPT1")
      .add(appro_vs_opt1.mean(), 4)
      .add(appro_vs_opt1.max(), 4)
      .add("2.0");
  table.begin_row()
      .add("alg_one_server/OPT1")
      .add(baseline_vs_opt1.mean(), 4)
      .add(baseline_vs_opt1.max(), 4)
      .add("~3.0");
  table.begin_row()
      .add("appro_multi_K2/auxOPT2")
      .add(approk2_vs_aux2.mean(), 4)
      .add(approk2_vs_aux2.max(), 4)
      .add("2.0");
  bench::finish("ratio_measured", table);
  return 0;
}
