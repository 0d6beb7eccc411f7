// Cost models.
//
// * `LinearCosts` — the pay-as-you-go operational-cost model of the offline
//   problems (Section III-C, Case 1): a usage cost per unit of bandwidth on
//   every link (c_e) and per unit of computing on every server (c_v).
// * `ExponentialCostModel` — the online cost model of Section V-A
//   (Equations 1 and 2): underloaded resources are cheap, overloaded ones
//   exponentially expensive, steering admissions toward balanced utilization.
#pragma once

#include <vector>

#include "nfv/resources.h"
#include "topology/topology.h"
#include "util/rng.h"

namespace nfvm::core {

/// Per-unit usage costs for the offline (operational-cost) experiments.
struct LinearCosts {
  /// c_e: cost of one Mbps on link e, indexed by EdgeId.
  std::vector<double> link_unit_cost;
  /// c_v: cost of one MHz on the server at switch v, indexed by VertexId
  /// (meaningful only for server switches).
  std::vector<double> server_unit_cost;

  /// c_e * mbps for routing `mbps` over link `e`.
  double edge_cost(graph::EdgeId e, double mbps) const {
    return link_unit_cost.at(e) * mbps;
  }
  /// c_v * mhz for running a chain that demands `mhz` at switch `v`.
  double server_cost(graph::VertexId v, double mhz) const {
    return server_unit_cost.at(v) * mhz;
  }
};

struct RandomCostOptions {
  // Defaults chosen so that, for the paper's request mix (b_k in [50,200]
  // Mbps, chains of 1-3 NFs), bandwidth and computing costs are the same
  // order of magnitude - the regime where the K-server tradeoff is
  // interesting.
  double min_link_cost = 0.01;   // per Mbps
  double max_link_cost = 0.10;
  double min_server_cost = 0.002;  // per MHz
  double max_server_cost = 0.010;
};

/// Draws per-link and per-server unit costs uniformly from the ranges.
LinearCosts random_costs(const topo::Topology& topo, util::Rng& rng,
                         const RandomCostOptions& options = {});

/// The online exponential cost model. With utilization u_v = 1 - C_v(k)/C_v:
///   c_v(k) = C_v (alpha^{u_v} - 1)            (Eq. 1)
///   c_e(k) = B_e (beta^{u_e} - 1)             (Eq. 2)
/// and the normalized weights used by Online_CP:
///   w_v(k) = c_v(k) / C_v = alpha^{u_v} - 1
///   w_e(k) = c_e(k) / B_e = beta^{u_e} - 1.
class ExponentialCostModel {
 public:
  /// Throws std::invalid_argument unless alpha > 1 and beta > 1.
  ExponentialCostModel(double alpha, double beta);

  /// The paper's choice alpha = beta = 2|V| (Theorem 2).
  static ExponentialCostModel paper_default(std::size_t num_vertices);

  double alpha() const noexcept { return alpha_; }
  double beta() const noexcept { return beta_; }

  double server_weight(graph::VertexId v, const nfv::ResourceState& state) const;
  double edge_weight(graph::EdgeId e, const nfv::ResourceState& state) const;

 private:
  double alpha_;
  double beta_;
};

}  // namespace nfvm::core
