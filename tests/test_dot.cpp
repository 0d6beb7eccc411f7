#include "io/dot.h"

#include <gtest/gtest.h>

#include "core/appro_multi.h"
#include "reference/support.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::io {
namespace {

topo::Topology small_topology() {
  topo::Topology t;
  t.name = "dot-test";
  t.graph = graph::Graph(4);
  t.graph.add_edge(0, 1, 1.0);
  t.graph.add_edge(1, 2, 1.0);
  t.graph.add_edge(2, 3, 1.0);
  t.servers = {2};
  t.link_bandwidth = {1000, 1000, 1000};
  t.server_compute = {0, 0, 8000, 0};
  return t;
}

TEST(Dot, BareTopologyStructure) {
  const topo::Topology t = small_topology();
  const std::string dot = to_dot(t);
  EXPECT_NE(dot.find("graph \"dot-test\""), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("n2 -- n3"), std::string::npos);
  // Server node is drawn as a box.
  EXPECT_NE(dot.find("n2 [label=\"2\", shape=box"), std::string::npos);
  EXPECT_EQ(dot.find("shape=box, shape=box"), std::string::npos);
  // Braces balance.
  EXPECT_EQ(dot.back(), '\n');
  EXPECT_NE(dot.find("}"), std::string::npos);
}

TEST(Dot, BandwidthLabelsOptIn) {
  const topo::Topology t = small_topology();
  DotOptions opts;
  opts.label_bandwidth = true;
  const std::string dot = to_dot(t, opts);
  EXPECT_NE(dot.find("label=\"1000\""), std::string::npos);
}

TEST(Dot, CoordinatesEmittedWhenPresent) {
  topo::Topology t = small_topology();
  t.coords = {{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}, {0.7, 0.8}};
  const std::string dot = to_dot(t);
  EXPECT_NE(dot.find("pos=\""), std::string::npos);
  DotOptions opts;
  opts.use_coordinates = false;
  EXPECT_EQ(to_dot(t, opts).find("pos=\""), std::string::npos);
}

TEST(Dot, TreeOverlayHighlightsRoles) {
  const topo::Topology t = small_topology();
  const core::LinearCosts costs = reference::uniform_costs(t, 1.0, 0.01);
  nfv::Request r;
  r.id = 1;
  r.source = 0;
  r.destinations = {3};
  r.bandwidth_mbps = 100.0;
  r.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});
  const core::OfflineSolution sol = core::appro_multi(t, costs, r);
  ASSERT_TRUE(sol.admitted);

  const std::string dot = to_dot(t, r, sol.tree);
  EXPECT_NE(dot.find("fillcolor=gold"), std::string::npos);       // source
  EXPECT_NE(dot.find("fillcolor=lightblue"), std::string::npos);  // server
  EXPECT_NE(dot.find("fillcolor=palegreen"), std::string::npos);  // dest
  EXPECT_NE(dot.find("color=crimson"), std::string::npos);        // tree link
  EXPECT_NE(dot.find("x1"), std::string::npos);                   // multiplicity
}

TEST(Dot, TreeOverlayRejectsUnknownEdge) {
  const topo::Topology t = small_topology();
  nfv::Request r;
  r.id = 1;
  r.source = 0;
  r.destinations = {3};
  r.bandwidth_mbps = 100.0;
  r.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});
  core::PseudoMulticastTree tree;
  tree.source = 0;
  tree.servers = {2};
  tree.edge_uses = {{99, 1}};
  EXPECT_THROW(to_dot(t, r, tree), std::invalid_argument);
}

TEST(Dot, GeneratedTopologyProducesParsableSizes) {
  util::Rng rng(3);
  const topo::Topology t = topo::make_waxman(25, rng);
  const std::string dot = to_dot(t);
  // one line per node + per edge + wrapper lines
  std::size_t lines = 0;
  for (char c : dot) lines += (c == '\n') ? 1 : 0;
  EXPECT_GE(lines, t.num_switches() + t.num_links());
}

}  // namespace
}  // namespace nfvm::io
