// Extension E5: 1+1 protection - link-disjoint backup pseudo-multicast
// trees.
//
// Sweeps topology density: sparse networks have bridges (single points of
// failure) that make protection impossible for some requests, dense networks
// protect nearly everything. Columns: bridges in the topology, fraction of
// admitted requests with a feasible link-disjoint backup, and the mean cost
// overhead of the backup relative to its primary.
#include "bench_common.h"
#include "core/backup.h"
#include "graph/bridges.h"

int main() {
  using namespace nfvm;
  const std::size_t per_point = bench::offline_requests_per_point(30);

  std::cout << "# Extension E5: link-disjoint backup feasibility vs density (n=60)\n";
  std::cout << "# requests per data point: " << per_point << "\n";

  util::Table table({"mean_degree", "bridges", "protected_frac",
                     "backup_cost_overhead"});

  for (double degree : {2.5, 3.0, 4.0, 6.0}) {
    util::Rng rng(91);
    topo::WaxmanOptions wo;
    wo.target_mean_degree = degree;
    const topo::Topology topo = topo::make_waxman(60, rng, wo);
    const core::LinearCosts costs = core::random_costs(topo, rng);
    const graph::CutAnalysis cut = graph::find_cut_elements(topo.graph);

    util::Rng workload(92);
    sim::RequestGenerator gen(topo, workload);
    std::size_t admitted = 0;
    std::size_t protected_count = 0;
    util::RunningStats overhead;
    for (std::size_t i = 0; i < per_point; ++i) {
      const nfv::Request r = gen.next();
      core::ApproMultiOptions opts;
      const core::OfflineSolution primary = core::appro_multi(topo, costs, r, opts);
      if (!primary.admitted) continue;
      ++admitted;
      core::BackupOptions bopts;
      const core::OfflineSolution backup =
          core::compute_backup_tree(topo, costs, r, primary.tree, bopts);
      if (!backup.admitted) continue;
      ++protected_count;
      overhead.add(backup.tree.cost / primary.tree.cost);
    }

    table.begin_row()
        .add(degree, 1)
        .add(cut.bridges.size())
        .add(admitted == 0 ? 0.0
                           : static_cast<double>(protected_count) /
                                 static_cast<double>(admitted),
             3)
        .add(overhead.mean(), 3);
  }
  bench::finish("ext_backup", table);
  return 0;
}
