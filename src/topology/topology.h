// Physical SDN topologies: switches, links, attached servers, capacities.
//
// Matches the paper's system model (Section III-A): G = (V, E) of SDN
// switches, a subset V_S with attached servers, computing capacity C_v per
// server and bandwidth capacity B_e per link.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace nfvm::topo {

struct Point {
  double x = 0.0;
  double y = 0.0;
};

struct Topology {
  std::string name;
  /// Switch-level connectivity. Edge weights are hop weights (1.0); the
  /// algorithms build their own per-request weighted graphs on top.
  graph::Graph graph;
  /// Optional embedding coordinates (empty when the source has none).
  std::vector<Point> coords;
  /// Switches with attached servers (V_S), sorted ascending.
  std::vector<graph::VertexId> servers;
  /// B_e, Mbps, indexed by EdgeId.
  std::vector<double> link_bandwidth;
  /// C_v, MHz, indexed by VertexId; 0 for switches without a server.
  std::vector<double> server_compute;
  /// Optional propagation delay per link, ms, indexed by EdgeId. Empty when
  /// the deployment does not model delays (the base paper does not; the
  /// delay-constrained extension requires it - see core/delay.h).
  std::vector<double> link_delay_ms;
  /// Optional forwarding-table capacity per switch (flow entries), indexed
  /// by VertexId. Empty = unconstrained. Every admitted multicast group
  /// installs one entry on each switch its tree touches - the node-capacity
  /// model of Huang et al. [10] from the paper's related work.
  std::vector<double> switch_table_capacity;

  bool has_delays() const noexcept { return !link_delay_ms.empty(); }
  bool has_table_capacities() const noexcept {
    return !switch_table_capacity.empty();
  }

  std::size_t num_switches() const noexcept { return graph.num_vertices(); }
  std::size_t num_links() const noexcept { return graph.num_edges(); }
  bool is_server(graph::VertexId v) const;
};

/// Capacity ranges from the paper's evaluation settings (Section VI-A).
struct CapacityOptions {
  double min_bandwidth_mbps = 1000.0;
  double max_bandwidth_mbps = 10000.0;
  double min_compute_mhz = 4000.0;
  double max_compute_mhz = 12000.0;
};

/// Chooses `count` server switches uniformly at random and records them in
/// `topo.servers` (sorted). Throws std::invalid_argument if count exceeds
/// the switch count or is zero.
void choose_servers(Topology& topo, std::size_t count, util::Rng& rng);

/// Chooses ceil(fraction * |V|) servers (the paper uses 10%).
void choose_servers_fraction(Topology& topo, double fraction, util::Rng& rng);

/// Draws link bandwidths and server computing capacities uniformly from the
/// configured ranges. Must be called after the server set is fixed.
void assign_capacities(Topology& topo, util::Rng& rng,
                       const CapacityOptions& options = {});

/// Draws per-link propagation delays uniformly from [min_ms, max_ms].
/// Throws std::invalid_argument for a non-positive or inverted range.
void assign_delays(Topology& topo, util::Rng& rng, double min_ms = 0.1,
                   double max_ms = 2.0);

/// Gives every switch the same forwarding-table capacity (flow entries).
/// Throws std::invalid_argument for entries < 1.
void assign_table_capacities(Topology& topo, double entries_per_switch);

}  // namespace nfvm::topo
