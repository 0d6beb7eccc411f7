#include "core/cost_model.h"

#include <cmath>
#include <stdexcept>

namespace nfvm::core {

LinearCosts random_costs(const topo::Topology& topo, util::Rng& rng,
                         const RandomCostOptions& options) {
  if (options.min_link_cost < 0 || options.min_link_cost > options.max_link_cost ||
      options.min_server_cost < 0 ||
      options.min_server_cost > options.max_server_cost) {
    throw std::invalid_argument("random_costs: invalid ranges");
  }
  LinearCosts costs;
  costs.link_unit_cost.resize(topo.num_links());
  for (double& c : costs.link_unit_cost) {
    c = rng.uniform_real(options.min_link_cost, options.max_link_cost);
  }
  costs.server_unit_cost.assign(topo.num_switches(), 0.0);
  for (graph::VertexId v : topo.servers) {
    costs.server_unit_cost[v] =
        rng.uniform_real(options.min_server_cost, options.max_server_cost);
  }
  return costs;
}

ExponentialCostModel::ExponentialCostModel(double alpha, double beta)
    : alpha_(alpha), beta_(beta) {
  if (!(alpha > 1.0) || !(beta > 1.0)) {
    throw std::invalid_argument("ExponentialCostModel: alpha and beta must be > 1");
  }
}

ExponentialCostModel ExponentialCostModel::paper_default(std::size_t num_vertices) {
  const double a = 2.0 * static_cast<double>(num_vertices);
  // alpha = beta = 2|V|; require |V| >= 1 so the base exceeds 1.
  if (num_vertices == 0) {
    throw std::invalid_argument("ExponentialCostModel: empty network");
  }
  return ExponentialCostModel(a, a);
}

double ExponentialCostModel::server_weight(graph::VertexId v,
                                           const nfv::ResourceState& state) const {
  return std::pow(alpha_, state.compute_utilization(v)) - 1.0;
}

double ExponentialCostModel::edge_weight(graph::EdgeId e,
                                         const nfv::ResourceState& state) const {
  return std::pow(beta_, state.bandwidth_utilization(e)) - 1.0;
}

}  // namespace nfvm::core
