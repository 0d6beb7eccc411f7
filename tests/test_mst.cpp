#include "graph/mst.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/components.h"
#include "graph/union_find.h"
#include "reference/support.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::graph {
namespace {

TEST(Mst, SimpleTriangle) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(0, 2, 3.0);
  const MstResult mst = reference::kruskal_mst(g);
  EXPECT_TRUE(mst.spanning);
  EXPECT_EQ(mst.edges.size(), 2u);
  EXPECT_DOUBLE_EQ(mst.weight, 3.0);
  EXPECT_TRUE(std::find(mst.edges.begin(), mst.edges.end(), 2u) == mst.edges.end());
}

TEST(Mst, DisconnectedGraphIsForest) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  const MstResult mst = reference::kruskal_mst(g);
  EXPECT_FALSE(mst.spanning);
  EXPECT_EQ(mst.edges.size(), 2u);
}

TEST(Mst, SingleVertexSpans) {
  Graph g(1);
  const MstResult mst = reference::kruskal_mst(g);
  EXPECT_TRUE(mst.spanning);
  EXPECT_TRUE(mst.edges.empty());
  EXPECT_DOUBLE_EQ(mst.weight, 0.0);
}

TEST(Mst, ParallelEdgesPickCheapest) {
  Graph g(2);
  g.add_edge(0, 1, 5.0);
  const EdgeId cheap = g.add_edge(0, 1, 1.0);
  const MstResult mst = reference::kruskal_mst(g);
  ASSERT_EQ(mst.edges.size(), 1u);
  EXPECT_EQ(mst.edges[0], cheap);
}

TEST(Mst, TieBreaksByEdgeIdDeterministically) {
  Graph g(2);
  const EdgeId first = g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 1.0);
  const MstResult mst = reference::kruskal_mst(g);
  ASSERT_EQ(mst.edges.size(), 1u);
  EXPECT_EQ(mst.edges[0], first);
}

TEST(Mst, SubsetRestrictsCandidates) {
  Graph g(3);
  const EdgeId e01 = g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  const EdgeId e02 = g.add_edge(0, 2, 3.0);
  const std::vector<EdgeId> subset{e01, e02};
  const MstResult mst = kruskal_mst_subset(g, subset);
  EXPECT_TRUE(mst.spanning);  // touched vertices {0,1,2} are connected
  EXPECT_DOUBLE_EQ(mst.weight, 4.0);
}

TEST(Mst, SubsetSpanningIgnoresUntouchedVertices) {
  Graph g(5);
  const EdgeId e01 = g.add_edge(0, 1, 1.0);
  const MstResult mst = kruskal_mst_subset(g, std::vector<EdgeId>{e01});
  EXPECT_TRUE(mst.spanning);  // only {0,1} are touched
}

TEST(Mst, SubsetDisconnectedTouchedVertices) {
  Graph g(4);
  const EdgeId a = g.add_edge(0, 1, 1.0);
  const EdgeId b = g.add_edge(2, 3, 1.0);
  const MstResult mst = kruskal_mst_subset(g, std::vector<EdgeId>{a, b});
  EXPECT_FALSE(mst.spanning);
}

TEST(Mst, EmptySubset) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const MstResult mst = kruskal_mst_subset(g, std::vector<EdgeId>{});
  EXPECT_TRUE(mst.edges.empty());
  EXPECT_FALSE(mst.spanning);  // no touched vertices
}

TEST(Mst, SpanningTreeHasNMinusOneEdges) {
  util::Rng rng(2024);
  const topo::Topology topo = topo::make_waxman(80, rng);
  const MstResult mst = reference::kruskal_mst(topo.graph);
  EXPECT_TRUE(mst.spanning);
  EXPECT_EQ(mst.edges.size(), topo.graph.num_vertices() - 1);
}

TEST(Mst, CutPropertyHolds) {
  // Property: for every MST edge (u,v), removing it splits the tree and the
  // edge is a minimum-weight crossing edge of that cut.
  util::Rng rng(5);
  Graph g(12);
  for (VertexId u = 0; u < 12; ++u) {
    for (VertexId v = u + 1; v < 12; ++v) {
      if (rng.bernoulli(0.5)) g.add_edge(u, v, rng.uniform_real(1.0, 10.0));
    }
  }
  if (!reference::is_connected(g)) GTEST_SKIP() << "random draw disconnected";
  const MstResult mst = reference::kruskal_mst(g);
  for (EdgeId removed : mst.edges) {
    // Components of the tree minus `removed`.
    std::vector<EdgeId> rest;
    for (EdgeId e : mst.edges) {
      if (e != removed) rest.push_back(e);
    }
    UnionFind uf(g.num_vertices());
    for (EdgeId e : rest) uf.unite(g.edge(e).u, g.edge(e).v);
    const double w = g.weight(removed);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& ed = g.edge(e);
      if (uf.find(ed.u) != uf.find(ed.v)) {
        EXPECT_GE(ed.weight + 1e-12, w) << "edge " << e << " violates cut property";
      }
    }
  }
}

}  // namespace
}  // namespace nfvm::graph
