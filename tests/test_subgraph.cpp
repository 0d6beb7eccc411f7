#include "reference/subgraph.h"

#include <gtest/gtest.h>

namespace nfvm::reference {
namespace {

using graph::EdgeId;
using graph::Graph;

Graph square() {
  Graph g(4);
  g.add_edge(0, 1, 1.0);  // e0
  g.add_edge(1, 2, 2.0);  // e1
  g.add_edge(2, 3, 3.0);  // e2
  g.add_edge(3, 0, 4.0);  // e3
  return g;
}

TEST(Subgraph, KeepAllIsIdentity) {
  const Graph g = square();
  const Subgraph sub = filter_edges(g, [](EdgeId) { return true; });
  EXPECT_EQ(sub.graph.num_vertices(), g.num_vertices());
  EXPECT_EQ(sub.graph.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(sub.original_edge[e], e);
    EXPECT_DOUBLE_EQ(sub.graph.weight(e), g.weight(e));
  }
}

TEST(Subgraph, DropAllKeepsVertices) {
  const Graph g = square();
  const Subgraph sub = filter_edges(g, [](EdgeId) { return false; });
  EXPECT_EQ(sub.graph.num_vertices(), 4u);
  EXPECT_EQ(sub.graph.num_edges(), 0u);
  EXPECT_TRUE(sub.original_edge.empty());
}

TEST(Subgraph, MappingPointsBack) {
  const Graph g = square();
  const Subgraph sub = filter_edges(g, [](EdgeId e) { return e % 2 == 1; });
  ASSERT_EQ(sub.graph.num_edges(), 2u);
  EXPECT_EQ(sub.original_edge[0], 1u);
  EXPECT_EQ(sub.original_edge[1], 3u);
  EXPECT_DOUBLE_EQ(sub.graph.weight(0), 2.0);
  EXPECT_DOUBLE_EQ(sub.graph.weight(1), 4.0);
}

TEST(Subgraph, ToOriginalTranslatesLists) {
  const Graph g = square();
  const Subgraph sub = filter_edges(g, [](EdgeId e) { return e >= 2; });
  const auto orig = sub.to_original({0, 1});
  EXPECT_EQ(orig, (std::vector<EdgeId>{2, 3}));
}

TEST(Subgraph, EndpointsPreserved) {
  const Graph g = square();
  const Subgraph sub = filter_edges(g, [](EdgeId e) { return e == 2; });
  ASSERT_EQ(sub.graph.num_edges(), 1u);
  EXPECT_EQ(sub.graph.edge(0).u, 2u);
  EXPECT_EQ(sub.graph.edge(0).v, 3u);
}

}  // namespace
}  // namespace nfvm::reference
