// Property-based sweeps over random graphs checking the KMB guarantee
// against the exact Dreyfus-Wagner optimum.
#include <gtest/gtest.h>

#include <vector>

#include "graph/components.h"
#include "graph/steiner.h"
#include "reference/exact_steiner.h"
#include "reference/support.h"
#include "util/rng.h"

namespace nfvm::graph {
namespace {

using reference::exact_steiner;

struct RandomCase {
  std::uint64_t seed;
  std::size_t num_vertices;
  double edge_prob;
  std::size_t num_terminals;
};

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

class SteinerRatioTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(SteinerRatioTest, KmbWithinTwiceOptimal) {
  const RandomCase& c = GetParam();
  util::Rng rng(c.seed);
  const Graph g = random_connected_graph(rng, c.num_vertices, c.edge_prob);
  std::vector<VertexId> terminals;
  for (std::size_t p : rng.sample_without_replacement(c.num_vertices, c.num_terminals)) {
    terminals.push_back(static_cast<VertexId>(p));
  }

  const SteinerResult approx = kmb_steiner(g, terminals);
  const SteinerResult exact = exact_steiner(g, terminals);
  ASSERT_TRUE(approx.connected);
  ASSERT_TRUE(exact.connected);

  EXPECT_TRUE(reference::is_steiner_tree(g, approx.edges, terminals));
  EXPECT_TRUE(reference::is_steiner_tree(g, exact.edges, terminals));

  // Exact is a lower bound for any Steiner tree.
  EXPECT_LE(exact.weight, approx.weight + 1e-9);
  // KMB guarantee: 2 (1 - 1/t) OPT <= 2 OPT.
  const double t = static_cast<double>(c.num_terminals);
  EXPECT_LE(approx.weight, 2.0 * (1.0 - 1.0 / t) * exact.weight + 1e-9)
      << "KMB ratio violated";
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, SteinerRatioTest,
    ::testing::Values(
        RandomCase{101, 8, 0.4, 3}, RandomCase{102, 8, 0.5, 4},
        RandomCase{103, 10, 0.35, 3}, RandomCase{104, 10, 0.4, 5},
        RandomCase{105, 12, 0.3, 4}, RandomCase{106, 12, 0.35, 6},
        RandomCase{107, 14, 0.3, 5}, RandomCase{108, 14, 0.25, 4},
        RandomCase{109, 16, 0.25, 6}, RandomCase{110, 16, 0.3, 7},
        RandomCase{111, 18, 0.22, 5}, RandomCase{112, 18, 0.25, 6},
        RandomCase{113, 20, 0.2, 4}, RandomCase{114, 20, 0.22, 7},
        RandomCase{115, 22, 0.2, 5}, RandomCase{116, 24, 0.18, 6},
        RandomCase{117, 9, 0.5, 2}, RandomCase{118, 11, 0.4, 2},
        RandomCase{119, 15, 0.3, 8}, RandomCase{120, 13, 0.35, 3}),
    [](const ::testing::TestParamInfo<RandomCase>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

class SteinerDeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SteinerDeterminismTest, KmbIsDeterministic) {
  util::Rng rng(GetParam());
  const Graph g = random_connected_graph(rng, 15, 0.3);
  std::vector<VertexId> terminals{0, 5, 9, 14};
  const SteinerResult a = kmb_steiner(g, terminals);
  const SteinerResult b = kmb_steiner(g, terminals);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_DOUBLE_EQ(a.weight, b.weight);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SteinerDeterminismTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(SteinerProperty, KmbWeightEqualsSumOfEdges) {
  util::Rng rng(321);
  const Graph g = random_connected_graph(rng, 20, 0.25);
  const std::vector<VertexId> terminals{1, 7, 13, 19};
  const SteinerResult st = kmb_steiner(g, terminals);
  double sum = 0.0;
  for (EdgeId e : st.edges) sum += g.weight(e);
  EXPECT_NEAR(sum, st.weight, 1e-9);
}

TEST(SteinerProperty, TerminalOrderIrrelevant) {
  util::Rng rng(654);
  const Graph g = random_connected_graph(rng, 16, 0.3);
  const SteinerResult a = kmb_steiner(g, std::vector<VertexId>{2, 6, 11, 15});
  const SteinerResult b = kmb_steiner(g, std::vector<VertexId>{15, 11, 6, 2});
  EXPECT_DOUBLE_EQ(a.weight, b.weight);
}

TEST(SteinerProperty, AddingTerminalsNeverCheapens) {
  util::Rng rng(987);
  const Graph g = random_connected_graph(rng, 14, 0.35);
  const SteinerResult small = exact_steiner(g, std::vector<VertexId>{0, 5});
  const SteinerResult large = exact_steiner(g, std::vector<VertexId>{0, 5, 9});
  EXPECT_GE(large.weight + 1e-9, small.weight);
}

}  // namespace
}  // namespace nfvm::graph
