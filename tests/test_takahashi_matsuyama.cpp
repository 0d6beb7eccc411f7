// The Takahashi–Matsuyama reference heuristic (ablation A4's second engine):
// edge cases, valid trees, and the 2(1 - 1/t) bound against Dreyfus–Wagner.
#include "reference/takahashi_matsuyama.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/components.h"
#include "graph/steiner.h"
#include "reference/exact_steiner.h"
#include "reference/support.h"
#include "util/rng.h"

namespace nfvm::graph {
namespace {

using reference::takahashi_matsuyama_steiner;

Graph random_connected_graph(util::Rng& rng, std::size_t n, double p) {
  for (;;) {
    Graph g(n);
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) {
        if (rng.bernoulli(p)) g.add_edge(u, v, rng.uniform_real(0.5, 10.0));
      }
    }
    if (reference::is_connected(g)) return g;
  }
}

TEST(TakahashiMatsuyama, SingleTerminal) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const SteinerResult st = takahashi_matsuyama_steiner(g, std::vector<VertexId>{1});
  EXPECT_TRUE(st.connected);
  EXPECT_TRUE(st.edges.empty());
}

TEST(TakahashiMatsuyama, TwoTerminalsShortestPath) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(0, 3, 10.0);
  const SteinerResult st =
      takahashi_matsuyama_steiner(g, std::vector<VertexId>{0, 3});
  EXPECT_TRUE(st.connected);
  EXPECT_DOUBLE_EQ(st.weight, 3.0);
}

TEST(TakahashiMatsuyama, DisconnectedTerminals) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  const SteinerResult st =
      takahashi_matsuyama_steiner(g, std::vector<VertexId>{0, 3});
  EXPECT_FALSE(st.connected);
}

TEST(TakahashiMatsuyama, EmptyTerminalsThrow) {
  Graph g(2);
  EXPECT_THROW(takahashi_matsuyama_steiner(g, std::vector<VertexId>{}),
               std::invalid_argument);
}

TEST(TakahashiMatsuyama, TerminalOnPathHandled) {
  // Path 0-1-2 with terminals {0, 1, 2}: terminal 1 lies on the path to 2.
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  const SteinerResult st =
      takahashi_matsuyama_steiner(g, std::vector<VertexId>{0, 1, 2});
  EXPECT_TRUE(st.connected);
  EXPECT_DOUBLE_EQ(st.weight, 2.0);
  EXPECT_EQ(st.edges.size(), 2u);
}

TEST(TakahashiMatsuyama, ProducesValidTreeOnRandomGraphs) {
  util::Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = random_connected_graph(rng, 20, 0.25);
    std::vector<VertexId> terminals;
    for (std::size_t p : rng.sample_without_replacement(20, 5)) {
      terminals.push_back(static_cast<VertexId>(p));
    }
    const SteinerResult st = takahashi_matsuyama_steiner(g, terminals);
    ASSERT_TRUE(st.connected);
    EXPECT_TRUE(reference::is_steiner_tree(g, st.edges, terminals)) << "trial " << trial;
  }
}

class TmRatioTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TmRatioTest, WithinTwiceOptimal) {
  util::Rng rng(GetParam());
  const Graph g = random_connected_graph(rng, 14, 0.3);
  std::vector<VertexId> terminals;
  for (std::size_t p : rng.sample_without_replacement(14, 5)) {
    terminals.push_back(static_cast<VertexId>(p));
  }
  const SteinerResult tm = takahashi_matsuyama_steiner(g, terminals);
  const SteinerResult exact = reference::exact_steiner(g, terminals);
  ASSERT_TRUE(tm.connected);
  ASSERT_TRUE(exact.connected);
  EXPECT_GE(tm.weight + 1e-9, exact.weight);
  EXPECT_LE(tm.weight, 2.0 * (1.0 - 1.0 / 5.0) * exact.weight + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TmRatioTest,
                         ::testing::Values(201u, 202u, 203u, 204u, 205u, 206u,
                                           207u, 208u, 209u, 210u));

}  // namespace
}  // namespace nfvm::graph
