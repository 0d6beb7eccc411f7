#include "io/serialize.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

namespace nfvm::io {
namespace {

std::string written(const topo::Topology& t) {
  std::ostringstream out;
  write_topology(out, t);
  return out.str();
}

TEST(Serialize, WritesEverySectionAtFullPrecision) {
  topo::Topology t;
  t.name = "demo";
  t.graph = graph::Graph(3);
  t.graph.add_edge(0, 1, 1.0);
  t.graph.add_edge(1, 2, 1.0);
  t.coords = {{0.0, 0.5}, {0.25, 1.0}, {1.0, 0.1}};
  t.servers = {1};
  t.server_compute = {0.0, 5000.0, 0.0};
  t.link_bandwidth = {1000.0, 0.1 + 0.2};
  t.link_delay_ms = {1.5, 2.0};
  t.switch_table_capacity = {8.0, 16.0, 32.0};
  // Doubles carry max_digits10 digits, so each value reads back exactly.
  EXPECT_EQ(written(t),
            "nfvm-topology 1\n"
            "name demo\n"
            "nodes 3\n"
            "coord 0 0 0.5\n"
            "coord 1 0.25 1\n"
            "coord 2 1 0.10000000000000001\n"
            "server 1 5000\n"
            "table 0 8\n"
            "table 1 16\n"
            "table 2 32\n"
            "edge 0 1 1000 1.5\n"
            "edge 1 2 0.30000000000000004 2\n");
}

TEST(Serialize, OmitsOptionalSections) {
  topo::Topology t;
  t.graph = graph::Graph(2);
  t.graph.add_edge(0, 1, 1.0);
  t.servers = {0};
  t.server_compute = {100.0, 0.0};
  t.link_bandwidth = {10.0};
  EXPECT_EQ(written(t),
            "nfvm-topology 1\n"
            "name unnamed\n"
            "nodes 2\n"
            "server 0 100\n"
            "edge 0 1 10\n");
}

TEST(Serialize, WriteRejectsUnassignedCapacities) {
  topo::Topology t;
  t.graph = graph::Graph(2);
  t.graph.add_edge(0, 1, 1.0);
  EXPECT_THROW(written(t), std::invalid_argument);
}

}  // namespace
}  // namespace nfvm::io
