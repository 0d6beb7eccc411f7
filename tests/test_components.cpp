#include "graph/components.h"

#include <gtest/gtest.h>

#include "reference/support.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::graph {
namespace {

TEST(Components, EmptyGraph) {
  Graph g;
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 0u);
  EXPECT_TRUE(reference::is_connected(g));
}

TEST(Components, IsolatedVertices) {
  Graph g(3);
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 3u);
  EXPECT_FALSE(reference::is_connected(g));
  EXPECT_FALSE(c.same_component(0, 1));
}

TEST(Components, SingleComponent) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 1u);
  EXPECT_TRUE(reference::is_connected(g));
  EXPECT_TRUE(c.same_component(0, 3));
}

TEST(Components, TwoComponents) {
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 4, 1.0);
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 2u);
  EXPECT_TRUE(c.same_component(2, 4));
  EXPECT_FALSE(c.same_component(1, 2));
}

TEST(Components, LabelsAreDense) {
  Graph g(4);
  g.add_edge(1, 2, 1.0);
  const Components c = connected_components(g);
  for (VertexId v = 0; v < 4; ++v) EXPECT_LT(c.component[v], c.count);
}

TEST(Components, WaxmanGeneratorAlwaysConnected) {
  util::Rng rng(3);
  for (std::size_t n : {10u, 50u, 120u}) {
    const topo::Topology topo = topo::make_waxman(n, rng);
    EXPECT_TRUE(reference::is_connected(topo.graph)) << "n=" << n;
  }
}

TEST(Components, SelfLoopDoesNotAffectComponents) {
  Graph g(2);
  g.add_edge(0, 0, 1.0);
  EXPECT_EQ(connected_components(g).count, 2u);
}

}  // namespace
}  // namespace nfvm::graph
