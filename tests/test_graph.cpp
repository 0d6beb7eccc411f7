#include "graph/graph.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace nfvm::graph {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.has_vertex(0));
  EXPECT_FALSE(g.has_edge(0));
}

TEST(Graph, ConstructWithVertices) {
  Graph g(5);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_TRUE(g.has_vertex(4));
  EXPECT_FALSE(g.has_vertex(5));
}

TEST(Graph, AddEdgeAndInspect) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 2, 1.5);
  EXPECT_EQ(e, 0u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edge(e).u, 0u);
  EXPECT_EQ(g.edge(e).v, 2u);
  EXPECT_DOUBLE_EQ(g.weight(e), 1.5);
}

TEST(Graph, AdjacencyBothDirections) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 1, 2.0);
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  ASSERT_EQ(g.neighbors(1).size(), 1u);
  EXPECT_EQ(g.neighbors(0)[0].neighbor, 1u);
  EXPECT_EQ(g.neighbors(0)[0].edge, e);
  EXPECT_EQ(g.neighbors(1)[0].neighbor, 0u);
  EXPECT_TRUE(g.neighbors(2).empty());
}

TEST(Graph, ParallelEdgesAllowed) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 2.0);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.neighbors(0).size(), 2u);
  g.add_edge(1, 1, 1.0);
  EXPECT_EQ(g.neighbors(1).size(), 3u);  // a self-loop is one adjacency record
}

TEST(Graph, InvalidEndpointsThrow) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 2, 1.0), std::out_of_range);
  EXPECT_THROW(g.add_edge(5, 0, 1.0), std::out_of_range);
}

TEST(Graph, NegativeOrNonFiniteWeightsRejected) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, std::nan("")), std::invalid_argument);
}

TEST(Graph, SetWeight) {
  Graph g(2);
  const EdgeId e = g.add_edge(0, 1, 1.0);
  g.set_weight(e, 3.0);
  EXPECT_DOUBLE_EQ(g.weight(e), 3.0);
  EXPECT_THROW(g.set_weight(e, -2.0), std::invalid_argument);
  EXPECT_THROW(g.set_weight(99, 1.0), std::out_of_range);
}

TEST(Graph, ZeroWeightAllowed) {
  Graph g(2);
  const EdgeId e = g.add_edge(0, 1, 0.0);
  EXPECT_DOUBLE_EQ(g.weight(e), 0.0);
}

TEST(Graph, FindEdge) {
  Graph g(4);
  const EdgeId e = g.add_edge(1, 3, 1.0);
  EXPECT_EQ(g.find_edge(1, 3), std::optional<EdgeId>(e));
  EXPECT_EQ(g.find_edge(3, 1), std::optional<EdgeId>(e));
  EXPECT_EQ(g.find_edge(0, 1), std::nullopt);
}

TEST(Graph, EdgesSpanIndexedById) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_DOUBLE_EQ(edges[1].weight, 2.0);
}

TEST(Graph, InvalidEdgeAccessThrows) {
  Graph g(2);
  EXPECT_THROW(g.edge(0), std::out_of_range);
  EXPECT_THROW(g.neighbors(5), std::out_of_range);
}

}  // namespace
}  // namespace nfvm::graph
