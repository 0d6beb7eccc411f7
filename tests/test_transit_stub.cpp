#include "topology/transit_stub.h"

#include <gtest/gtest.h>

#include "graph/components.h"
#include "graph/dijkstra.h"
#include "reference/support.h"
#include "util/rng.h"

namespace nfvm::topo {
namespace {

TEST(TransitStub, ExactNodeCount) {
  util::Rng rng(1);
  for (std::size_t n : {50u, 100u, 200u}) {
    const Topology t = make_transit_stub(n, rng);
    EXPECT_EQ(t.num_switches(), n);
  }
}

TEST(TransitStub, ConnectedAndValid) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    util::Rng rng(seed);
    const Topology t = make_transit_stub(80, rng);
    EXPECT_TRUE(reference::is_connected(t.graph)) << "seed " << seed;
    EXPECT_NO_THROW(reference::validate_topology(t));
  }
}

TEST(TransitStub, HierarchicalDiameterExceedsCoreDiameter) {
  // Paths between stub switches funnel through the small core, so typical
  // distances exceed core-to-core distances.
  util::Rng rng(3);
  const Topology t = make_transit_stub(120, rng);
  const graph::ShortestPaths sp = graph::dijkstra(t.graph, t.num_switches() - 1);
  double max_dist = 0;
  for (graph::VertexId v = 0; v < t.num_switches(); ++v) {
    max_dist = std::max(max_dist, sp.dist[v]);
  }
  EXPECT_GE(max_dist, 4.0);  // at least stub -> core -> core -> stub depth
}

TEST(TransitStub, CoreRingPresent) {
  util::Rng rng(4);
  TransitStubOptions opts;
  opts.transit_nodes = 5;
  const Topology t = make_transit_stub(60, rng, opts);
  for (graph::VertexId c = 0; c < 5; ++c) {
    EXPECT_TRUE(t.graph.find_edge(c, (c + 1) % 5).has_value())
        << "missing core ring edge " << c;
  }
}

TEST(TransitStub, ServerFractionRespected) {
  util::Rng rng(5);
  TransitStubOptions opts;
  opts.server_fraction = 0.2;
  const Topology t = make_transit_stub(100, rng, opts);
  EXPECT_EQ(t.servers.size(), 20u);
}

TEST(TransitStub, RejectsBadOptions) {
  util::Rng rng(6);
  EXPECT_THROW(make_transit_stub(4, rng), std::invalid_argument);
  TransitStubOptions opts;
  opts.mean_stub_size = 1;
  EXPECT_THROW(make_transit_stub(50, rng, opts), std::invalid_argument);
  opts = {};
  opts.transit_nodes = 60;
  EXPECT_THROW(make_transit_stub(50, rng, opts), std::invalid_argument);
}

TEST(TransitStub, DeterministicGivenSeed) {
  util::Rng a(7);
  util::Rng b(7);
  const Topology ta = make_transit_stub(70, a);
  const Topology tb = make_transit_stub(70, b);
  ASSERT_EQ(ta.num_links(), tb.num_links());
  for (graph::EdgeId e = 0; e < ta.num_links(); ++e) {
    EXPECT_EQ(ta.graph.edge(e).u, tb.graph.edge(e).u);
    EXPECT_EQ(ta.graph.edge(e).v, tb.graph.edge(e).v);
  }
}

TEST(TransitStub, SparserThanFlatWaxmanDefault) {
  util::Rng rng(8);
  const Topology t = make_transit_stub(100, rng);
  const double mean_degree =
      2.0 * static_cast<double>(t.num_links()) / static_cast<double>(t.num_switches());
  EXPECT_LT(mean_degree, 6.0);
  EXPECT_GE(mean_degree, 2.0);
}

}  // namespace
}  // namespace nfvm::topo
