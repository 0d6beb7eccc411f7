// Residual-resource bookkeeping for capacitated and online admission.
//
// Tracks C_v(k) (available computing at each server) and B_e(k) (available
// bandwidth at each link) as requests are admitted and released. A
// `Footprint` records exactly what one admitted request consumed so it can
// be released symmetrically; bandwidth entries carry multiplicities because
// pseudo-multicast trees may traverse a link more than once (tree pass +
// backhaul detour).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "topology/topology.h"

namespace nfvm::nfv {

/// What one admitted request consumes.
struct Footprint {
  /// (link, Mbps) pairs; the same link may appear once with an aggregated
  /// amount or multiple times - allocation sums entries.
  std::vector<std::pair<graph::EdgeId, double>> bandwidth;
  /// (server, MHz) pairs.
  std::vector<std::pair<graph::VertexId, double>> compute;
  /// Switches receiving one new forwarding-table (flow) entry for this
  /// multicast group. Ignored when the topology does not track table
  /// capacities. Duplicates aggregate like the other resources.
  std::vector<graph::VertexId> table_entries;

  bool empty() const noexcept {
    return bandwidth.empty() && compute.empty() && table_entries.empty();
  }
};

/// The raw residual vectors, exported for snapshot/restore. Residuals are
/// accumulated doubles (allocate subtracts, release adds back), so they can
/// only be reproduced bit-exactly by carrying the values themselves -
/// replaying footprints in any order other than the original interleaved
/// allocate/release history reassociates the floating-point sums and drifts
/// by an ulp.
struct ResourceResiduals {
  std::vector<double> bandwidth;  ///< per-link residual Mbps
  std::vector<double> compute;    ///< per-server residual MHz
  std::vector<double> table;      ///< per-switch residual entries; empty when not tracked
};

class ResourceState {
 public:
  /// Initializes residuals to the topology's full capacities.
  explicit ResourceState(const topo::Topology& topo);

  double residual_bandwidth(graph::EdgeId e) const { return residual_bandwidth_.at(e); }
  double compute_capacity(graph::VertexId v) const { return compute_capacity_.at(v); }
  double residual_compute(graph::VertexId v) const { return residual_compute_.at(v); }

  /// True when the topology declared forwarding-table capacities.
  bool tracks_tables() const noexcept { return !table_capacity_.empty(); }
  /// Residual flow entries at switch v; +infinity when not tracked.
  double residual_table_entries(graph::VertexId v) const;

  /// Utilization in [0, 1]: 1 - residual/capacity.
  double bandwidth_utilization(graph::EdgeId e) const;
  double compute_utilization(graph::VertexId v) const;

  std::size_t num_links() const noexcept { return residual_bandwidth_.size(); }
  std::size_t num_switches() const noexcept { return residual_compute_.size(); }

  /// True iff every entry of the footprint fits in the current residuals
  /// (entries for the same resource are summed before checking).
  bool can_allocate(const Footprint& fp) const;

  /// Atomically consumes the footprint. Throws std::runtime_error (leaving
  /// the state unchanged) if it does not fit, std::out_of_range on bad ids.
  void allocate(const Footprint& fp);

  /// Returns the footprint's resources. Throws std::runtime_error if a
  /// release would exceed the capacity (double release), leaving the state
  /// unchanged.
  void release(const Footprint& fp);

  /// Copies of the residual vectors, bit-exact.
  ResourceResiduals export_residuals() const;

  /// Installs previously exported residuals verbatim. Throws
  /// std::runtime_error if the shapes do not match this topology or any
  /// value lies outside [0, capacity] - a snapshot taken on a different
  /// network must fail loudly, not restore garbage.
  void restore_residuals(const ResourceResiduals& residuals);

 private:
  std::vector<double> bandwidth_capacity_;
  std::vector<double> residual_bandwidth_;
  std::vector<double> compute_capacity_;
  std::vector<double> residual_compute_;
  std::vector<double> table_capacity_;   // empty when not tracked
  std::vector<double> residual_table_;
};

/// One (id, total) pair per distinct id of `entries`, ascending by id: how
/// ResourceState sums a footprint's entries for one resource. Each total
/// starts at 0.0 and adds the id's amounts in input order, so it carries
/// the bits a std::map<id, double> would accumulate. Throws
/// std::invalid_argument on a negative or NaN amount.
std::vector<std::pair<std::size_t, double>> aggregate_amounts(
    std::span<const std::pair<std::uint32_t, double>> entries);

/// The admission algorithms' shared link-eligibility predicate: link `e` of
/// `g` can join a new multicast tree for a request demanding
/// `bandwidth_mbps` iff its residual bandwidth covers the demand and both
/// endpoint switches still have a free forwarding-table entry (trivially
/// true when the topology does not track table capacities).
inline bool edge_eligible(const ResourceState& state, const graph::Graph& g,
                          graph::EdgeId e, double bandwidth_mbps) {
  if (state.residual_bandwidth(e) < bandwidth_mbps) return false;
  const graph::Edge& ed = g.edge(e);
  return state.residual_table_entries(ed.u) >= 1.0 &&
         state.residual_table_entries(ed.v) >= 1.0;
}

/// Sizes `mask` to the links of `g` and sets each byte to edge_eligible at
/// `bandwidth_mbps`: 1 for a link a new tree may use, 0 otherwise. The
/// predicate is a pure function of (state, bandwidth), so one O(|E|) sweep
/// serves every shortest-path tree of a request.
void fill_eligibility_mask(const ResourceState& state, const graph::Graph& g,
                           double bandwidth_mbps, std::vector<std::uint8_t>& mask);

}  // namespace nfvm::nfv
