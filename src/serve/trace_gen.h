// Offline trace generation for nfvm-serve (the `nfvm-serve-client` CLI).
//
// Produces a JSONL command trace - interleaved arrive/depart lines in
// simulated-time order, optional periodic snapshot commands, optional final
// stats command - that a daemon can consume from stdin or have replayed over
// a socket. The workload model is run_soak's: Poisson arrivals (optionally
// diurnally thinned), exponential holding times, request bodies from
// sim::RequestGenerator, so a (topology, seed, options) triple always yields
// the same trace bytes.
//
// The generator cannot know admission outcomes, so it emits a depart for
// EVERY arrival; the daemon answers departs for rejected or shed arrivals
// with released:false rather than an error (see serve/protocol.h).
#pragma once

#include <cstddef>
#include <ostream>

#include "sim/request_gen.h"
#include "topology/topology.h"
#include "util/rng.h"

namespace nfvm::serve {

struct TraceGenOptions {
  std::size_t num_requests = 1000;
  /// Poisson arrival model, as sim::SoakOptions (sim::next_arrival).
  double arrival_rate = 1.0;
  double mean_duration = 20.0;
  double diurnal_amplitude = 0.0;
  double diurnal_period = 86'400.0;
  /// Applied to every request; 0 = unconstrained.
  double max_delay_ms = 0.0;
  /// Emit a {"cmd":"snapshot"} line after every N arrivals; 0 disables.
  std::size_t snapshot_every = 0;
  /// End the trace with a {"cmd":"stats"} line. Leave off for traces used in
  /// byte-equivalence gates - the stats reply carries timing quantiles.
  bool final_stats = false;
  sim::RequestGenOptions request_gen;
};

struct TraceSummary {
  std::size_t arrive_lines = 0;
  std::size_t depart_lines = 0;
  std::size_t snapshot_lines = 0;
  std::size_t total_lines = 0;
};

/// Writes the trace to `out`, one command per line. Throws
/// std::invalid_argument as sim::check_arrival_model does.
TraceSummary write_serve_trace(std::ostream& out, const topo::Topology& topo,
                               util::Rng& rng, const TraceGenOptions& options);

}  // namespace nfvm::serve
