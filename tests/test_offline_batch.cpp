// The offline batch (sim::run_offline_batch, what `nfvm-sim --mode offline`
// runs) against the exhaustive combination sweep over the same shared-table
// evaluation (tests/reference). The configurations are nfvm-sim's: GEANT
// and Waxman with --nodes 100, --requests 40, --seed 11, K = 1..3. Every
// request's decision must match the sweep's exactly, at whatever thread
// count the global pool runs (NFVM_THREADS).
#include "sim/offline_batch.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "reference/appro_multi_reference.h"
#include "sim/request_gen.h"
#include "topology/geant.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::sim {
namespace {

constexpr std::uint64_t kSeed = 11;
constexpr std::size_t kRequests = 40;

/// The network nfvm-sim builds for --topology `name` --nodes 100.
topo::Topology cli_topology(const std::string& name, util::Rng& rng) {
  if (name == "geant") return topo::make_geant(rng);
  topo::WaxmanOptions wo;
  wo.target_mean_degree = 4.0;
  return topo::make_waxman(100, rng, wo);
}

class OfflineBatchTest : public ::testing::TestWithParam<std::string> {};

TEST_P(OfflineBatchTest, DecisionsMatchTheExhaustiveSweep) {
  util::Rng rng(kSeed);
  const topo::Topology topo = cli_topology(GetParam(), rng);
  util::Rng costs_rng(kSeed + 2);
  const core::LinearCosts costs = core::random_costs(topo, costs_rng);
  util::Rng workload(kSeed + 1);
  RequestGenerator gen(topo, workload, RequestGenOptions{});
  const std::vector<nfv::Request> requests = gen.sequence(kRequests);

  const OfflineBatchOptions options;
  const std::vector<OfflineRequestResult> results =
      run_offline_batch(topo, costs, requests, options);
  ASSERT_EQ(results.size(), requests.size());

  std::size_t admitted = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(results[i].appro_multi.size(), options.max_servers_sweep);
    for (std::size_t k = 1; k <= options.max_servers_sweep; ++k) {
      core::ApproMultiOptions sweep_options;
      sweep_options.max_servers = k;
      const core::OfflineSolution sweep = reference::appro_multi(
          topo, costs, requests[i], sweep_options,
          reference::Engine::kSharedDijkstra, reference::Search::kLegacySweep);
      const core::OfflineSolution& got = results[i].appro_multi[k - 1];
      const std::string where = "request " + std::to_string(i) + " K " + std::to_string(k);
      ASSERT_EQ(got.admitted, sweep.admitted) << where;
      EXPECT_EQ(got.reject_reason, sweep.reject_reason) << where;
      if (!got.admitted) continue;
      ++admitted;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.tree.cost),
                std::bit_cast<std::uint64_t>(sweep.tree.cost))
          << where << ": " << got.tree.cost << " vs " << sweep.tree.cost;
      EXPECT_EQ(got.tree.servers, sweep.tree.servers) << where;
      EXPECT_EQ(got.tree.edge_uses, sweep.tree.edge_uses) << where;
    }
  }
  EXPECT_GT(admitted, 0u);
}

INSTANTIATE_TEST_SUITE_P(CliConfigurations, OfflineBatchTest,
                         ::testing::Values("geant", "waxman100"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace nfvm::sim
