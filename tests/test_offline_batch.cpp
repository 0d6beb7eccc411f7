// The offline batch (sim::run_offline_batch, what `nfvm-sim --mode offline`
// runs) against the exhaustive combination sweep over the same shared-table
// evaluation (tests/reference). The configurations are nfvm-sim's: GEANT
// and Waxman with --nodes 100, --requests 40, --seed 11, K = 1..3. Every
// request's decision must match the sweep's exactly, at whatever thread
// count the global pool runs (NFVM_THREADS). The batch's chain-splitting
// decisions, and those of one capacitated pass over the same requests,
// must hash to pinned values.
#include "sim/offline_batch.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "nfv/resources.h"
#include "obs/run_info.h"
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

/// One chain-splitting decision as text: admission, reject reason, cost
/// bits, placements, link uses and every route's walk and processing index.
std::string describe(const core::ChainSplitSolution& sol) {
  char cost[32];
  std::snprintf(cost, sizeof cost, "%.17g", sol.tree.cost);
  std::string out = (sol.admitted ? "admit " : "reject ") + sol.reject_reason +
                    " cost " + cost + " nf";
  for (const auto& [nf, v] : sol.placements) {
    out += ' ' + std::to_string(static_cast<int>(nf)) + '@' + std::to_string(v);
  }
  out += " links";
  for (const auto& [e, count] : sol.tree.edge_uses) {
    out += ' ' + std::to_string(e) + 'x' + std::to_string(count);
  }
  for (const core::DestinationRoute& route : sol.tree.routes) {
    out += " route " + std::to_string(route.server_index) + ':';
    for (const graph::VertexId v : route.walk) out += ' ' + std::to_string(v);
  }
  return out + '\n';
}

class OfflineBatchTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    util::Rng rng(kSeed);
    topo = cli_topology(GetParam(), rng);
    util::Rng costs_rng(kSeed + 2);
    costs = core::random_costs(topo, costs_rng);
    util::Rng workload(kSeed + 1);
    RequestGenerator gen(topo, workload, RequestGenOptions{});
    requests = gen.sequence(kRequests);
  }

  topo::Topology topo;
  core::LinearCosts costs;
  std::vector<nfv::Request> requests;
};

TEST_P(OfflineBatchTest, DecisionsMatchTheExhaustiveSweep) {
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

/// ChainSplitDecisionsArePinned's hashes for one configuration.
struct ChainSplitDigests {
  const char* batch;
  const char* capacitated;
};

ChainSplitDigests pinned_digests(const std::string& config) {
  if (config == "geant") return {"0ebcabe046aee53b", "149350f99195b3da"};
  return {"a7ddaebf381b7090", "cd32d9b7658a92d4"};
}

TEST_P(OfflineBatchTest, ChainSplitDecisionsArePinned) {
  // The batch's decisions, on the uncapacitated network. Each footprint
  // that still fits then loads one ResourceState.
  std::string batch;
  nfv::ResourceState state(topo);
  for (const OfflineRequestResult& result :
       run_offline_batch(topo, costs, requests)) {
    const core::ChainSplitSolution& sol = result.chain_split;
    batch += describe(sol);
    if (sol.admitted && state.can_allocate(sol.footprint)) state.allocate(sol.footprint);
  }
  // One capacitated pass over the same requests on that partly loaded
  // network, each admitted request allocating its footprint in turn.
  core::ChainSplitOptions options;
  options.resources = &state;
  std::string capacitated;
  for (const nfv::Request& request : requests) {
    const core::ChainSplitSolution sol =
        core::chain_split_multicast(topo, costs, request, options);
    capacitated += describe(sol);
    if (sol.admitted) state.allocate(sol.footprint);
  }
  const ChainSplitDigests pinned = pinned_digests(GetParam());
  EXPECT_EQ(obs::config_hash_hex(batch), pinned.batch);
  EXPECT_EQ(obs::config_hash_hex(capacitated), pinned.capacitated);
}

INSTANTIATE_TEST_SUITE_P(CliConfigurations, OfflineBatchTest,
                         ::testing::Values("geant", "waxman100"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace nfvm::sim
