#include "graph/tree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/dijkstra.h"
#include "graph/steiner.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::graph {
namespace {

/// Balanced binary tree on 7 vertices: 0 -> (1,2), 1 -> (3,4), 2 -> (5,6).
struct BinTree {
  Graph g{7};
  std::vector<EdgeId> edges;
  BinTree() {
    edges.push_back(g.add_edge(0, 1, 1.0));
    edges.push_back(g.add_edge(0, 2, 2.0));
    edges.push_back(g.add_edge(1, 3, 3.0));
    edges.push_back(g.add_edge(1, 4, 4.0));
    edges.push_back(g.add_edge(2, 5, 5.0));
    edges.push_back(g.add_edge(2, 6, 6.0));
  }
};

TEST(RootedTree, ParentsAndDepths) {
  BinTree t;
  const RootedTree rt(t.g, t.edges, 0);
  EXPECT_EQ(rt.root(), 0u);
  // The path to the root starts with a vertex's parent; its length is the
  // vertex's depth.
  EXPECT_EQ(rt.path_vertices(3, 0)[1], 1u);
  EXPECT_EQ(rt.path_vertices(6, 0)[1], 2u);
  EXPECT_EQ(rt.path_edges(0, 0).size(), 0u);
  EXPECT_EQ(rt.path_edges(0, 1).size(), 1u);
  EXPECT_EQ(rt.path_edges(0, 5).size(), 2u);
  EXPECT_EQ(rt.vertices().front(), 0u);  // BFS order from the root
}

TEST(RootedTree, DistFromRoot) {
  BinTree t;
  const RootedTree rt(t.g, t.edges, 0);
  EXPECT_DOUBLE_EQ(rt.path_weight(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(rt.path_weight(0, 4), 5.0);   // 1 + 4
  EXPECT_DOUBLE_EQ(rt.path_weight(0, 6), 8.0);   // 2 + 6
}

TEST(RootedTree, LcaPairs) {
  BinTree t;
  const RootedTree rt(t.g, t.edges, 0);
  EXPECT_EQ(rt.lca(3, 4), 1u);
  EXPECT_EQ(rt.lca(3, 6), 0u);
  EXPECT_EQ(rt.lca(5, 6), 2u);
  EXPECT_EQ(rt.lca(1, 3), 1u);   // ancestor case
  EXPECT_EQ(rt.lca(0, 6), 0u);   // root case
  EXPECT_EQ(rt.lca(4, 4), 4u);   // identical vertices
}

TEST(RootedTree, IteratedLca) {
  BinTree t;
  const RootedTree rt(t.g, t.edges, 0);
  EXPECT_EQ(rt.lca(std::vector<VertexId>{3, 4}), 1u);
  EXPECT_EQ(rt.lca(std::vector<VertexId>{3, 4, 5}), 0u);
  EXPECT_EQ(rt.lca(std::vector<VertexId>{6}), 6u);
  EXPECT_THROW(rt.lca(std::vector<VertexId>{}), std::invalid_argument);
}

TEST(RootedTree, IsAncestor) {
  // a is an ancestor of v iff lca(a, v) == a.
  BinTree t;
  const RootedTree rt(t.g, t.edges, 0);
  EXPECT_EQ(rt.lca(0, 6), 0u);
  EXPECT_EQ(rt.lca(1, 4), 1u);
  EXPECT_EQ(rt.lca(4, 4), 4u);
  EXPECT_NE(rt.lca(1, 5), 1u);
  EXPECT_NE(rt.lca(4, 1), 4u);
}

TEST(RootedTree, PathVertices) {
  BinTree t;
  const RootedTree rt(t.g, t.edges, 0);
  EXPECT_EQ(rt.path_vertices(3, 4), (std::vector<VertexId>{3, 1, 4}));
  EXPECT_EQ(rt.path_vertices(3, 6), (std::vector<VertexId>{3, 1, 0, 2, 6}));
  EXPECT_EQ(rt.path_vertices(0, 5), (std::vector<VertexId>{0, 2, 5}));
  EXPECT_EQ(rt.path_vertices(5, 5), (std::vector<VertexId>{5}));
}

TEST(RootedTree, PathEdgesAndWeight) {
  BinTree t;
  const RootedTree rt(t.g, t.edges, 0);
  const auto edges = rt.path_edges(3, 6);
  EXPECT_EQ(edges.size(), 4u);
  EXPECT_DOUBLE_EQ(rt.path_weight(3, 6), 3.0 + 1.0 + 2.0 + 6.0);
  EXPECT_DOUBLE_EQ(rt.path_weight(4, 4), 0.0);
  EXPECT_DOUBLE_EQ(rt.path_weight(0, 4), 5.0);
}

TEST(RootedTree, PathEdgesInTravelOrder) {
  BinTree t;
  const RootedTree rt(t.g, t.edges, 0);
  const auto edges = rt.path_edges(4, 3);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], t.edges[3]);  // 4 -> 1
  EXPECT_EQ(edges[1], t.edges[2]);  // 1 -> 3
}

TEST(RootedTree, ForestExcludesOtherTree) {
  Graph g(4);
  const EdgeId a = g.add_edge(0, 1, 1.0);
  const EdgeId b = g.add_edge(2, 3, 1.0);
  const RootedTree rt(g, std::vector<EdgeId>{a, b}, 0);
  EXPECT_TRUE(rt.contains(1));
  EXPECT_FALSE(rt.contains(2));
  EXPECT_THROW(rt.path_vertices(2, 0), std::out_of_range);
}

TEST(RootedTree, CycleDetected) {
  Graph g(3);
  const EdgeId a = g.add_edge(0, 1, 1.0);
  const EdgeId b = g.add_edge(1, 2, 1.0);
  const EdgeId c = g.add_edge(2, 0, 1.0);
  EXPECT_THROW(RootedTree(g, std::vector<EdgeId>{a, b, c}, 0),
               std::invalid_argument);
}

TEST(RootedTree, ParallelEdgeCycleDetected) {
  Graph g(2);
  const EdgeId a = g.add_edge(0, 1, 1.0);
  const EdgeId b = g.add_edge(0, 1, 2.0);
  EXPECT_THROW(RootedTree(g, std::vector<EdgeId>{a, b}, 0),
               std::invalid_argument);
}

TEST(RootedTree, SelfLoopRejected) {
  Graph g(2);
  const EdgeId a = g.add_edge(0, 0, 1.0);
  EXPECT_THROW(RootedTree(g, std::vector<EdgeId>{a}, 0), std::invalid_argument);
}

TEST(RootedTree, InvalidRootThrows) {
  Graph g(2);
  EXPECT_THROW(RootedTree(g, std::vector<EdgeId>{}, 9), std::out_of_range);
}

TEST(RootedTree, EmptyTreeSingleVertex) {
  Graph g(3);
  const RootedTree rt(g, std::vector<EdgeId>{}, 1);
  EXPECT_TRUE(rt.contains(1));
  EXPECT_FALSE(rt.contains(0));
  EXPECT_EQ(rt.vertices().size(), 1u);
  EXPECT_EQ(rt.path_vertices(1, 1), (std::vector<VertexId>{1}));
}

TEST(RootedTree, LcaAgreesWithBruteForceOnRandomTrees) {
  util::Rng rng(42);
  const topo::Topology topo = topo::make_waxman(60, rng);
  // Use a Steiner tree over a handful of terminals as a random tree.
  const SteinerResult st =
      kmb_steiner(topo.graph, std::vector<VertexId>{0, 10, 20, 30, 40, 50});
  ASSERT_TRUE(st.connected);
  const RootedTree rt(topo.graph, st.edges, 0);

  // Brute force: LCA via parent chains of a BFS over the tree edges.
  std::vector<VertexId> parent(topo.graph.num_vertices(), kInvalidVertex);
  std::vector<bool> seen(topo.graph.num_vertices(), false);
  std::vector<VertexId> queue{0};
  seen[0] = true;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId u = queue[head];
    for (EdgeId e : st.edges) {
      const Edge& ed = topo.graph.edge(e);
      const VertexId w = ed.u == u ? ed.v : ed.v == u ? ed.u : kInvalidVertex;
      if (w == kInvalidVertex || seen[w]) continue;
      seen[w] = true;
      parent[w] = u;
      queue.push_back(w);
    }
  }
  auto brute_lca = [&](VertexId a, VertexId b) {
    std::vector<VertexId> chain;
    for (VertexId v = a;; v = parent[v]) {
      chain.push_back(v);
      if (v == rt.root()) break;
    }
    for (VertexId v = b;; v = parent[v]) {
      if (std::find(chain.begin(), chain.end(), v) != chain.end()) return v;
      if (v == rt.root()) return rt.root();
    }
  };

  const auto& verts = rt.vertices();
  for (std::size_t i = 0; i < verts.size(); ++i) {
    for (std::size_t j = i; j < verts.size(); ++j) {
      EXPECT_EQ(rt.lca(verts[i], verts[j]), brute_lca(verts[i], verts[j]));
    }
  }
}

TEST(RootedTree, PathWeightMatchesEdgeSum) {
  util::Rng rng(17);
  const topo::Topology topo = topo::make_waxman(40, rng);
  const SteinerResult st =
      kmb_steiner(topo.graph, std::vector<VertexId>{1, 11, 21, 31});
  ASSERT_TRUE(st.connected);
  const RootedTree rt(topo.graph, st.edges, 1);
  const auto& verts = rt.vertices();
  for (VertexId a : verts) {
    for (VertexId b : verts) {
      double sum = 0.0;
      for (EdgeId e : rt.path_edges(a, b)) sum += topo.graph.weight(e);
      EXPECT_NEAR(sum, rt.path_weight(a, b), 1e-9);
    }
  }
}

}  // namespace
}  // namespace nfvm::graph
