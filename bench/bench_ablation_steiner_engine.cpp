// Ablation A4: the Steiner engine inside Appro_Multi.
//
// The paper builds on Kou-Markowsky-Berman [12]; Takahashi-Matsuyama is the
// other classic 2-approximation and is cheaper per call (no metric-closure
// MST + expansion). This ablation runs Appro_Multi's exhaustive combination
// sweep (reference::auxiliary_sweep) with each engine in every auxiliary
// graph and compares solution cost and running time - evidence for (or
// against) the paper's choice of [12]. Production code runs KMB only, so
// the Takahashi-Matsuyama engine comes from tests/reference.
//
// The KMB sweep is Appro_Multi computed the long way, KMB run in every
// materialized auxiliary graph: the binary exits non-zero when it disagrees
// with core::appro_multi at default options (admission, cost bits or
// servers) on any request. Costs are random reals, so shortest paths are
// unique and the two evaluations must give the same trees.
#include <bit>
#include <cstdint>

#include "bench_common.h"
#include "graph/steiner.h"
#include "reference/exact_offline.h"
#include "reference/takahashi_matsuyama.h"

int main() {
  using namespace nfvm;
  const std::size_t per_point = bench::offline_requests_per_point(10);

  std::cout << "# Ablation A4: KMB vs Takahashi-Matsuyama inside Appro_Multi (K=3)\n";
  std::cout << "# requests per data point: " << per_point << "\n";

  util::Table table(
      {"n", "kmb_cost", "tm_cost", "tm_vs_kmb", "kmb_ms", "tm_ms"});

  for (std::size_t n : {50u, 100u, 150u}) {
    util::Rng rng(1300 + n);
    const topo::Topology topo = bench::make_sweep_topology(n, rng);
    const core::LinearCosts costs = core::random_costs(topo, rng);

    sim::RequestGenOptions gen_opts;
    gen_opts.min_dest_ratio = 0.15;
    gen_opts.max_dest_ratio = 0.15;
    util::Rng workload(2300 + n);
    sim::RequestGenerator gen(topo, workload, gen_opts);
    const std::vector<nfv::Request> requests = gen.sequence(per_point);

    reference::ExactOfflineOptions sweep_opts;
    sweep_opts.max_servers = 3;
    std::vector<core::OfflineSolution> kmb_solutions;
    const auto run = [&](reference::AuxSteiner steiner,
                         std::vector<core::OfflineSolution>* keep) {
      return bench::run_offline_batch(requests, [&](const nfv::Request& r) {
        core::OfflineSolution sol =
            reference::auxiliary_sweep(topo, costs, r, sweep_opts, steiner);
        if (keep != nullptr) keep->push_back(sol);
        return sol;
      });
    };
    const bench::OfflineStats kmb = run(graph::kmb_steiner, &kmb_solutions);
    const bench::OfflineStats tm =
        run(reference::takahashi_matsuyama_steiner, nullptr);

    for (std::size_t i = 0; i < requests.size(); ++i) {
      core::ApproMultiOptions opts;
      opts.max_servers = sweep_opts.max_servers;
      const core::OfflineSolution fast =
          core::appro_multi(topo, costs, requests[i], opts);
      const core::OfflineSolution& sweep = kmb_solutions[i];
      const bool same =
          fast.admitted == sweep.admitted &&
          (!fast.admitted ||
           (std::bit_cast<std::uint64_t>(fast.tree.cost) ==
                std::bit_cast<std::uint64_t>(sweep.tree.cost) &&
            fast.tree.servers == sweep.tree.servers));
      if (!same) {
        std::cerr << "FATAL: the KMB sweep disagrees with core::appro_multi on "
                     "request "
                  << i << " at n=" << n << "\n";
        return 1;
      }
    }

    table.begin_row()
        .add(n)
        .add(kmb.cost.mean(), 2)
        .add(tm.cost.mean(), 2)
        .add(kmb.cost.mean() > 0 ? tm.cost.mean() / kmb.cost.mean() : 0.0, 3)
        .add(kmb.time_ms.mean(), 2)
        .add(tm.time_ms.mean(), 2);
  }
  bench::finish("ablation_steiner_engine", table);
  return 0;
}
