#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/components.h"
#include "reference/support.h"
#include "topology/geant.h"
#include "topology/rocketfuel.h"
#include "util/rng.h"

namespace nfvm::topo {
namespace {

TEST(Geant, SizeMatchesEmbeddedMap) {
  util::Rng rng(1);
  const Topology t = make_geant(rng);
  EXPECT_EQ(t.num_switches(), 40u);
  EXPECT_EQ(t.num_links(), 61u);
  EXPECT_EQ(t.servers.size(), 9u);  // nine servers as in the paper's setting
}

TEST(Geant, ConnectedAndValid) {
  util::Rng rng(2);
  const Topology t = make_geant(rng);
  EXPECT_TRUE(reference::is_connected(t.graph));
  EXPECT_NO_THROW(reference::validate_topology(t));
}

TEST(Geant, CityNamesAlignWithVertices) {
  util::Rng rng(3);
  const Topology t = make_geant(rng);
  const auto& names = geant_city_names();
  EXPECT_EQ(names.size(), t.num_switches());
  std::set<std::string> distinct(names.begin(), names.end());
  EXPECT_EQ(distinct.size(), names.size());
}

TEST(Geant, WiringIsDeterministic) {
  util::Rng a(10);
  util::Rng b(20);  // different capacity draws, same wiring
  const Topology ta = make_geant(a);
  const Topology tb = make_geant(b);
  ASSERT_EQ(ta.num_links(), tb.num_links());
  for (graph::EdgeId e = 0; e < ta.num_links(); ++e) {
    EXPECT_EQ(ta.graph.edge(e).u, tb.graph.edge(e).u);
    EXPECT_EQ(ta.graph.edge(e).v, tb.graph.edge(e).v);
  }
  EXPECT_EQ(ta.servers, tb.servers);
}

TEST(Geant, ServersAreMajorPops) {
  util::Rng rng(4);
  const Topology t = make_geant(rng);
  const auto& names = geant_city_names();
  std::set<std::string> server_names;
  for (graph::VertexId v : t.servers) server_names.insert(names[v]);
  EXPECT_TRUE(server_names.count("Frankfurt"));
  EXPECT_TRUE(server_names.count("London"));
  EXPECT_TRUE(server_names.count("Amsterdam"));
}

TEST(As1755, MatchesRocketfuelScale) {
  util::Rng rng(1);
  const Topology t = make_as1755(rng);
  EXPECT_EQ(t.num_switches(), 87u);
  EXPECT_EQ(t.num_links(), 161u);
  EXPECT_EQ(t.servers.size(), 9u);
  EXPECT_TRUE(reference::is_connected(t.graph));
  EXPECT_NO_THROW(reference::validate_topology(t));
}

TEST(As4755, MatchesRocketfuelScale) {
  util::Rng rng(1);
  const Topology t = make_as4755(rng);
  EXPECT_EQ(t.num_switches(), 121u);
  EXPECT_EQ(t.num_links(), 228u);
  EXPECT_EQ(t.servers.size(), 12u);
  EXPECT_TRUE(reference::is_connected(t.graph));
}

TEST(IspLike, WiringIsAPureFunctionOfStructureSeed) {
  util::Rng a(111);
  util::Rng b(999);
  const Topology ta = make_as1755(a);
  const Topology tb = make_as1755(b);
  ASSERT_EQ(ta.num_links(), tb.num_links());
  for (graph::EdgeId e = 0; e < ta.num_links(); ++e) {
    EXPECT_EQ(ta.graph.edge(e).u, tb.graph.edge(e).u);
    EXPECT_EQ(ta.graph.edge(e).v, tb.graph.edge(e).v);
  }
}

TEST(IspLike, HeavyTailedDegrees) {
  // Preferential attachment should produce hubs: the max degree must be
  // several times the mean degree.
  util::Rng rng(5);
  const Topology t = make_as1755(rng);
  std::size_t max_deg = 0;
  for (graph::VertexId v = 0; v < t.num_switches(); ++v) {
    max_deg = std::max(max_deg, t.graph.neighbors(v).size());  // no self-loops
  }
  const double mean_deg =
      2.0 * static_cast<double>(t.num_links()) / static_cast<double>(t.num_switches());
  EXPECT_GE(static_cast<double>(max_deg), 3.0 * mean_deg);
}

TEST(IspLike, NoParallelLinks) {
  util::Rng rng(6);
  const Topology t = make_as4755(rng);
  std::set<std::pair<graph::VertexId, graph::VertexId>> seen;
  for (const graph::Edge& e : t.graph.edges()) {
    const auto key = std::minmax(e.u, e.v);
    EXPECT_TRUE(seen.emplace(key.first, key.second).second)
        << "duplicate link " << e.u << "-" << e.v;
  }
}

TEST(IspLike, RejectsInconsistentOptions) {
  util::Rng rng(7);
  IspOptions opts;
  opts.num_nodes = 10;
  opts.num_links = 5;  // < n - 1
  opts.num_servers = 2;
  EXPECT_THROW(make_isp_like("bad", opts, rng), std::invalid_argument);
  opts.num_links = 100;  // > n(n-1)/2
  EXPECT_THROW(make_isp_like("bad", opts, rng), std::invalid_argument);
  opts.num_links = 20;
  opts.num_servers = 0;
  EXPECT_THROW(make_isp_like("bad", opts, rng), std::invalid_argument);
}

TEST(IspLike, CustomScaleWorks) {
  util::Rng rng(8);
  IspOptions opts;
  opts.num_nodes = 30;
  opts.num_links = 55;
  opts.num_servers = 4;
  opts.structure_seed = 77;
  const Topology t = make_isp_like("custom", opts, rng);
  EXPECT_EQ(t.num_switches(), 30u);
  EXPECT_EQ(t.num_links(), 55u);
  EXPECT_EQ(t.servers.size(), 4u);
  EXPECT_TRUE(reference::is_connected(t.graph));
}

}  // namespace
}  // namespace nfvm::topo
