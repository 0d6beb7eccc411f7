// Model-based fuzzing of the Graph class: random edge insertions (parallel
// edges and self-loops included) are mirrored against a trivially correct
// adjacency-matrix reference and all observable queries must agree.
#include <gtest/gtest.h>

#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace nfvm::graph {
namespace {

/// Reference implementation: dense matrix of multiplicity + edge list.
class ReferenceGraph {
 public:
  explicit ReferenceGraph(std::size_t n) : matrix_(n, std::vector<int>(n, 0)) {}

  void add_edge(std::size_t u, std::size_t v, double w) {
    edges_.push_back({u, v, w});
    ++matrix_[u][v];
    if (u != v) ++matrix_[v][u];
  }

  std::size_t num_vertices() const { return matrix_.size(); }
  std::size_t num_edges() const { return edges_.size(); }

  int multiplicity(std::size_t u, std::size_t v) const { return matrix_[u][v]; }

  struct E {
    std::size_t u, v;
    double w;
  };
  const std::vector<E>& edges() const { return edges_; }

 private:
  std::vector<std::vector<int>> matrix_;
  std::vector<E> edges_;
};

class GraphModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphModelTest, RandomOperationSequenceAgrees) {
  util::Rng rng(GetParam());
  const std::size_t n = 1 + rng.next_below(60);
  Graph g(n);
  ReferenceGraph ref(n);

  for (int step = 0; step < 420; ++step) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>(rng.next_below(n));
    const double w = rng.uniform_real(0.0, 5.0);
    g.add_edge(u, v, w);
    ref.add_edge(u, v, w);
  }

  ASSERT_EQ(g.num_vertices(), ref.num_vertices());
  ASSERT_EQ(g.num_edges(), ref.num_edges());

  // Edge records match the reference list, id by id.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    EXPECT_EQ(ed.u, ref.edges()[e].u);
    EXPECT_EQ(ed.v, ref.edges()[e].v);
    EXPECT_DOUBLE_EQ(ed.weight, ref.edges()[e].w);
  }

  // Adjacency multiplicities agree with the matrix (a self-loop is one
  // record in its vertex's list, as it is one count on the diagonal).
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    std::vector<int> count(g.num_vertices(), 0);
    for (const Adjacency& adj : g.neighbors(u)) ++count[adj.neighbor];
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(count[v], ref.multiplicity(u, v)) << u << "-" << v;
    }
  }

  // find_edge agrees with the matrix on existence.
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(g.find_edge(u, v).has_value(), ref.multiplicity(u, v) > 0)
          << u << "-" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphModelTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace nfvm::graph
