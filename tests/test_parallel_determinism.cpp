// Bit-identical results regardless of worker-thread count: APSP, KMB,
// Appro_Multi's combination sweep, and the offline simulator batch all
// fan out over util::ThreadPool::global(), and all must produce exactly
// the same output at 1 and 4 threads.
#include <gtest/gtest.h>

#include <vector>

#include "core/appro_multi.h"
#include "graph/steiner.h"
#include "reference/apsp.h"
#include "reference/support.h"
#include "sim/offline_batch.h"
#include "sim/request_gen.h"
#include "topology/waxman.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace nfvm {
namespace {

/// Restores the global pool to single-threaded when a test exits.
struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { util::ThreadPool::set_global_threads(1); }
};

topo::Topology make_topology(std::size_t n, unsigned seed) {
  util::Rng rng(seed);
  return topo::make_waxman(n, rng);
}

TEST(ParallelDeterminism, ApspMatrixIsThreadCountInvariant) {
  GlobalThreadsGuard guard;
  const topo::Topology topo = make_topology(50, 31);

  util::ThreadPool::set_global_threads(1);
  const reference::AllPairsShortestPaths serial(topo.graph, /*keep_parents=*/true);
  util::ThreadPool::set_global_threads(4);
  const reference::AllPairsShortestPaths parallel(topo.graph, /*keep_parents=*/true);

  ASSERT_EQ(serial.num_vertices(), parallel.num_vertices());
  for (graph::VertexId u = 0; u < serial.num_vertices(); ++u) {
    for (graph::VertexId v = 0; v < serial.num_vertices(); ++v) {
      ASSERT_EQ(serial.distance(u, v), parallel.distance(u, v));
    }
    const graph::ShortestPaths& st = serial.source_tree(u);
    const graph::ShortestPaths& pt = parallel.source_tree(u);
    ASSERT_EQ(st.parent, pt.parent);
    ASSERT_EQ(st.parent_edge, pt.parent_edge);
  }
}

TEST(ParallelDeterminism, KmbSteinerIsThreadCountInvariant) {
  GlobalThreadsGuard guard;
  const topo::Topology topo = make_topology(60, 32);
  const std::vector<graph::VertexId> terminals{0, 7, 19, 33, 48, 55};

  util::ThreadPool::set_global_threads(1);
  const graph::SteinerResult serial = graph::kmb_steiner(topo.graph, terminals);
  util::ThreadPool::set_global_threads(4);
  const graph::SteinerResult parallel = graph::kmb_steiner(topo.graph, terminals);

  EXPECT_EQ(serial.connected, parallel.connected);
  EXPECT_EQ(serial.edges, parallel.edges);
  EXPECT_EQ(serial.weight, parallel.weight);
}

TEST(ParallelDeterminism, ApproMultiIsThreadCountInvariant) {
  GlobalThreadsGuard guard;
  const topo::Topology topo = make_topology(40, 33);
  const core::LinearCosts costs = reference::uniform_costs(topo, 1.0, 0.001);
  util::Rng rng(34);
  sim::RequestGenerator gen(topo, rng);
  const std::vector<nfv::Request> requests = gen.sequence(5);

  core::ApproMultiOptions opts;
  opts.max_servers = 2;
  for (const nfv::Request& request : requests) {
    util::ThreadPool::set_global_threads(1);
    const core::OfflineSolution serial =
        core::appro_multi(topo, costs, request, opts);
    util::ThreadPool::set_global_threads(4);
    const core::OfflineSolution parallel =
        core::appro_multi(topo, costs, request, opts);

    EXPECT_EQ(serial.admitted, parallel.admitted);
    EXPECT_EQ(serial.combinations_explored, parallel.combinations_explored);
    EXPECT_EQ(serial.tree.cost, parallel.tree.cost);  // bit-equal, not near
    EXPECT_EQ(serial.tree.servers, parallel.tree.servers);
    EXPECT_EQ(serial.tree.edge_uses, parallel.tree.edge_uses);
  }
}

TEST(ParallelDeterminism, OfflineBatchIsThreadCountInvariant) {
  GlobalThreadsGuard guard;
  const topo::Topology topo = make_topology(30, 35);
  const core::LinearCosts costs = reference::uniform_costs(topo, 1.0, 0.001);
  util::Rng rng(36);
  sim::RequestGenerator gen(topo, rng);
  const std::vector<nfv::Request> requests = gen.sequence(6);

  util::ThreadPool::set_global_threads(1);
  const auto serial = sim::run_offline_batch(topo, costs, requests);
  util::ThreadPool::set_global_threads(4);
  const auto parallel = sim::run_offline_batch(topo, costs, requests);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].appro_multi.size(), parallel[i].appro_multi.size());
    for (std::size_t k = 0; k < serial[i].appro_multi.size(); ++k) {
      EXPECT_EQ(serial[i].appro_multi[k].admitted,
                parallel[i].appro_multi[k].admitted);
      EXPECT_EQ(serial[i].appro_multi[k].tree.cost,
                parallel[i].appro_multi[k].tree.cost);
      EXPECT_EQ(serial[i].appro_multi[k].tree.edge_uses,
                parallel[i].appro_multi[k].tree.edge_uses);
    }
    EXPECT_EQ(serial[i].one_server.tree.cost, parallel[i].one_server.tree.cost);
    EXPECT_EQ(serial[i].chain_split.tree.cost, parallel[i].chain_split.tree.cost);
  }
}

}  // namespace
}  // namespace nfvm
