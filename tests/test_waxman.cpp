#include "topology/waxman.h"

#include <gtest/gtest.h>

#include "graph/components.h"
#include "reference/support.h"
#include "util/rng.h"

namespace nfvm::topo {
namespace {

TEST(Waxman, GeneratesRequestedSize) {
  util::Rng rng(1);
  const Topology t = make_waxman(50, rng);
  EXPECT_EQ(t.num_switches(), 50u);
  EXPECT_GT(t.num_links(), 49u);  // connected and denser than a tree
}

TEST(Waxman, AlwaysConnected) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    util::Rng rng(seed);
    const Topology t = make_waxman(60, rng);
    EXPECT_TRUE(reference::is_connected(t.graph)) << "seed " << seed;
  }
}

TEST(Waxman, TenPercentServersByDefault) {
  util::Rng rng(2);
  const Topology t = make_waxman(100, rng);
  EXPECT_EQ(t.servers.size(), 10u);
}

TEST(Waxman, ServerFractionRoundsUp) {
  util::Rng rng(3);
  const Topology t = make_waxman(55, rng);
  EXPECT_EQ(t.servers.size(), 6u);  // ceil(5.5)
}

TEST(Waxman, ValidatesCleanly) {
  util::Rng rng(4);
  const Topology t = make_waxman(70, rng);
  EXPECT_NO_THROW(reference::validate_topology(t));
}

TEST(Waxman, CoordinatesInUnitSquare) {
  util::Rng rng(5);
  const Topology t = make_waxman(40, rng);
  ASSERT_EQ(t.coords.size(), 40u);
  for (const Point& p : t.coords) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, 1.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, 1.0);
  }
}

TEST(Waxman, DeterministicGivenSeed) {
  util::Rng a(42);
  util::Rng b(42);
  const Topology ta = make_waxman(30, a);
  const Topology tb = make_waxman(30, b);
  EXPECT_EQ(ta.num_links(), tb.num_links());
  EXPECT_EQ(ta.servers, tb.servers);
  for (graph::EdgeId e = 0; e < ta.num_links(); ++e) {
    EXPECT_EQ(ta.graph.edge(e).u, tb.graph.edge(e).u);
    EXPECT_EQ(ta.graph.edge(e).v, tb.graph.edge(e).v);
  }
}

TEST(Waxman, DensityGrowsWithBeta) {
  util::Rng a(7);
  util::Rng b(7);
  WaxmanOptions sparse;
  sparse.beta = 0.1;
  WaxmanOptions dense;
  dense.beta = 0.9;
  const Topology ts = make_waxman(60, a, sparse);
  const Topology td = make_waxman(60, b, dense);
  EXPECT_LT(ts.num_links(), td.num_links());
}

TEST(Waxman, RejectsBadArguments) {
  util::Rng rng(8);
  EXPECT_THROW(make_waxman(1, rng), std::invalid_argument);
  WaxmanOptions bad;
  bad.alpha = 0.0;
  EXPECT_THROW(make_waxman(10, rng, bad), std::invalid_argument);
  bad.alpha = 0.2;
  bad.beta = 1.5;
  EXPECT_THROW(make_waxman(10, rng, bad), std::invalid_argument);
}

TEST(Waxman, NoCapacitiesWhenDisabled) {
  util::Rng rng(9);
  WaxmanOptions opts;
  opts.assign_capacities = false;
  const Topology t = make_waxman(20, rng, opts);
  for (double b : t.link_bandwidth) EXPECT_DOUBLE_EQ(b, 0.0);
}

TEST(Waxman, PaperSizesGenerate) {
  for (std::size_t n : {50u, 100u, 150u, 200u, 250u}) {
    util::Rng rng(n);
    const Topology t = make_waxman(n, rng);
    EXPECT_EQ(t.num_switches(), n);
    EXPECT_NO_THROW(reference::validate_topology(t));
  }
}

}  // namespace
}  // namespace nfvm::topo
