#include "io/serialize.h"

#include <iomanip>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace nfvm::io {

void write_topology(std::ostream& os, const topo::Topology& topo) {
  if (topo.link_bandwidth.size() != topo.num_links() ||
      topo.server_compute.size() != topo.num_switches()) {
    throw std::invalid_argument("write_topology: capacities not assigned");
  }
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "nfvm-topology 1\n";
  os << "name " << (topo.name.empty() ? "unnamed" : topo.name) << "\n";
  os << "nodes " << topo.num_switches() << "\n";
  for (std::size_t i = 0; i < topo.coords.size(); ++i) {
    os << "coord " << i << " " << topo.coords[i].x << " " << topo.coords[i].y << "\n";
  }
  for (graph::VertexId v : topo.servers) {
    os << "server " << v << " " << topo.server_compute[v] << "\n";
  }
  if (topo.has_table_capacities()) {
    for (graph::VertexId v = 0; v < topo.num_switches(); ++v) {
      os << "table " << v << " " << topo.switch_table_capacity[v] << "\n";
    }
  }
  for (graph::EdgeId e = 0; e < topo.num_links(); ++e) {
    const graph::Edge& ed = topo.graph.edge(e);
    os << "edge " << ed.u << " " << ed.v << " " << topo.link_bandwidth[e];
    if (topo.has_delays()) os << " " << topo.link_delay_ms[e];
    os << "\n";
  }
}

}  // namespace nfvm::io
