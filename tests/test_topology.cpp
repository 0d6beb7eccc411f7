#include "topology/topology.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "reference/support.h"
#include "util/rng.h"

namespace nfvm::topo {
namespace {

Topology tiny_topology() {
  Topology t;
  t.name = "tiny";
  t.graph = graph::Graph(4);
  t.graph.add_edge(0, 1, 1.0);
  t.graph.add_edge(1, 2, 1.0);
  t.graph.add_edge(2, 3, 1.0);
  return t;
}

TEST(Topology, IsServerUsesBinarySearch) {
  Topology t = tiny_topology();
  t.servers = {1, 3};
  EXPECT_TRUE(t.is_server(1));
  EXPECT_TRUE(t.is_server(3));
  EXPECT_FALSE(t.is_server(0));
  EXPECT_FALSE(t.is_server(2));
}

TEST(Topology, ChooseServersCountAndSorted) {
  Topology t = tiny_topology();
  util::Rng rng(1);
  choose_servers(t, 2, rng);
  EXPECT_EQ(t.servers.size(), 2u);
  EXPECT_TRUE(std::is_sorted(t.servers.begin(), t.servers.end()));
  EXPECT_LT(t.servers[1], 4u);
}

TEST(Topology, ChooseServersRejectsBadCounts) {
  Topology t = tiny_topology();
  util::Rng rng(1);
  EXPECT_THROW(choose_servers(t, 0, rng), std::invalid_argument);
  EXPECT_THROW(choose_servers(t, 5, rng), std::invalid_argument);
}

TEST(Topology, ChooseServersFractionCeils) {
  Topology t = tiny_topology();
  util::Rng rng(2);
  choose_servers_fraction(t, 0.10, rng);  // ceil(0.4) = 1
  EXPECT_EQ(t.servers.size(), 1u);
  choose_servers_fraction(t, 0.5, rng);
  EXPECT_EQ(t.servers.size(), 2u);
  EXPECT_THROW(choose_servers_fraction(t, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(choose_servers_fraction(t, 1.5, rng), std::invalid_argument);
}

TEST(Topology, AssignCapacitiesWithinPaperRanges) {
  Topology t = tiny_topology();
  util::Rng rng(3);
  choose_servers(t, 2, rng);
  assign_capacities(t, rng);
  ASSERT_EQ(t.link_bandwidth.size(), t.num_links());
  for (double b : t.link_bandwidth) {
    EXPECT_GE(b, 1000.0);
    EXPECT_LE(b, 10000.0);
  }
  for (graph::VertexId v = 0; v < t.num_switches(); ++v) {
    if (t.is_server(v)) {
      EXPECT_GE(t.server_compute[v], 4000.0);
      EXPECT_LE(t.server_compute[v], 12000.0);
    } else {
      EXPECT_DOUBLE_EQ(t.server_compute[v], 0.0);
    }
  }
}

TEST(Topology, AssignCapacitiesCustomRanges) {
  Topology t = tiny_topology();
  util::Rng rng(4);
  choose_servers(t, 1, rng);
  CapacityOptions opts;
  opts.min_bandwidth_mbps = 500;
  opts.max_bandwidth_mbps = 600;
  opts.min_compute_mhz = 100;
  opts.max_compute_mhz = 200;
  assign_capacities(t, rng, opts);
  for (double b : t.link_bandwidth) {
    EXPECT_GE(b, 500.0);
    EXPECT_LE(b, 600.0);
  }
}

TEST(Topology, AssignCapacitiesRejectsBadRanges) {
  Topology t = tiny_topology();
  util::Rng rng(4);
  choose_servers(t, 1, rng);
  CapacityOptions opts;
  opts.min_bandwidth_mbps = 10;
  opts.max_bandwidth_mbps = 5;
  EXPECT_THROW(assign_capacities(t, rng, opts), std::invalid_argument);
}

TEST(Topology, ValidateAcceptsWellFormed) {
  Topology t = tiny_topology();
  util::Rng rng(5);
  choose_servers(t, 2, rng);
  assign_capacities(t, rng);
  EXPECT_NO_THROW(reference::validate_topology(t));
}

TEST(Topology, ValidateRejectsMissingCapacities) {
  Topology t = tiny_topology();
  t.servers = {0};
  EXPECT_THROW(reference::validate_topology(t), std::logic_error);
}

TEST(Topology, ValidateRejectsNoServers) {
  Topology t = tiny_topology();
  util::Rng rng(6);
  choose_servers(t, 1, rng);
  assign_capacities(t, rng);
  t.servers.clear();
  EXPECT_THROW(reference::validate_topology(t), std::logic_error);
}

TEST(Topology, ValidateRejectsDisconnected) {
  Topology t;
  t.graph = graph::Graph(3);
  t.graph.add_edge(0, 1, 1.0);
  util::Rng rng(7);
  choose_servers(t, 1, rng);
  assign_capacities(t, rng);
  EXPECT_THROW(reference::validate_topology(t), std::logic_error);
}

TEST(Topology, ValidateRejectsUnsortedServers) {
  Topology t = tiny_topology();
  util::Rng rng(8);
  choose_servers(t, 2, rng);
  assign_capacities(t, rng);
  std::swap(t.servers[0], t.servers[1]);
  EXPECT_THROW(reference::validate_topology(t), std::logic_error);
}

}  // namespace
}  // namespace nfvm::topo
