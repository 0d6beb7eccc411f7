// Plain-text topology export (nfvm-sim --dump-topology).
//
// A small line-oriented format so a generated network can be saved, diffed
// and versioned:
//
//   nfvm-topology 1
//   name <string>
//   nodes <count>
//   coord <vertex> <x> <y>            (optional, any number)
//   server <vertex> <compute_mhz>     (one per server)
//   table <vertex> <entries>          (optional, one per switch when present)
//   edge <u> <v> <bandwidth_mbps> [delay_ms]   (one per link, insertion order)
#pragma once

#include <iosfwd>

#include "topology/topology.h"

namespace nfvm::io {

/// Serializes a topology. Link bandwidths / server capacities must be
/// assigned (write uses them); throws std::invalid_argument otherwise.
void write_topology(std::ostream& os, const topo::Topology& topo);

}  // namespace nfvm::io
