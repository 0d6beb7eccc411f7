#include "topology/topology.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nfvm::topo {

bool Topology::is_server(graph::VertexId v) const {
  return std::binary_search(servers.begin(), servers.end(), v);
}

void choose_servers(Topology& topo, std::size_t count, util::Rng& rng) {
  if (count == 0 || count > topo.num_switches()) {
    throw std::invalid_argument("choose_servers: bad server count");
  }
  const std::vector<std::size_t> picks =
      rng.sample_without_replacement(topo.num_switches(), count);
  topo.servers.clear();
  topo.servers.reserve(count);
  for (std::size_t p : picks) topo.servers.push_back(static_cast<graph::VertexId>(p));
  std::sort(topo.servers.begin(), topo.servers.end());
}

void choose_servers_fraction(Topology& topo, double fraction, util::Rng& rng) {
  if (!(fraction > 0.0) || fraction > 1.0) {
    throw std::invalid_argument("choose_servers_fraction: fraction outside (0,1]");
  }
  const auto count = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(topo.num_switches())));
  choose_servers(topo, std::max<std::size_t>(count, 1), rng);
}

void assign_capacities(Topology& topo, util::Rng& rng, const CapacityOptions& options) {
  if (options.min_bandwidth_mbps <= 0 ||
      options.min_bandwidth_mbps > options.max_bandwidth_mbps ||
      options.min_compute_mhz <= 0 ||
      options.min_compute_mhz > options.max_compute_mhz) {
    throw std::invalid_argument("assign_capacities: invalid capacity ranges");
  }
  topo.link_bandwidth.resize(topo.num_links());
  for (double& b : topo.link_bandwidth) {
    b = rng.uniform_real(options.min_bandwidth_mbps, options.max_bandwidth_mbps);
  }
  topo.server_compute.assign(topo.num_switches(), 0.0);
  for (graph::VertexId v : topo.servers) {
    topo.server_compute[v] =
        rng.uniform_real(options.min_compute_mhz, options.max_compute_mhz);
  }
}

void assign_delays(Topology& topo, util::Rng& rng, double min_ms, double max_ms) {
  if (!(min_ms > 0) || min_ms > max_ms) {
    throw std::invalid_argument("assign_delays: invalid delay range");
  }
  topo.link_delay_ms.resize(topo.num_links());
  for (double& d : topo.link_delay_ms) d = rng.uniform_real(min_ms, max_ms);
}

void assign_table_capacities(Topology& topo, double entries_per_switch) {
  if (!(entries_per_switch >= 1)) {
    throw std::invalid_argument("assign_table_capacities: need >= 1 entry");
  }
  topo.switch_table_capacity.assign(topo.num_switches(), entries_per_switch);
}

}  // namespace nfvm::topo
