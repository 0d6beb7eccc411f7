#include "nfv/resources.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace nfvm::nfv {
namespace {

constexpr double kSlack = 1e-9;  // float tolerance for capacity checks

/// Sorts `entries` stably by id and merges equal ids left to right, each
/// sum starting at 0.0. Footprints arrive sorted by id, so the sort is
/// usually skipped.
std::vector<std::pair<std::size_t, double>> merge_by_id(
    std::vector<std::pair<std::size_t, double>> entries) {
  const auto by_id = [](const auto& a, const auto& b) { return a.first < b.first; };
  if (!std::is_sorted(entries.begin(), entries.end(), by_id)) {
    std::stable_sort(entries.begin(), entries.end(), by_id);
  }
  std::size_t out = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (out > 0 && entries[out - 1].first == entries[i].first) {
      entries[out - 1].second += entries[i].second;
    } else {
      entries[out++] = {entries[i].first, 0.0 + entries[i].second};
    }
  }
  entries.resize(out);
  return entries;
}

std::vector<std::pair<std::size_t, double>> aggregate_tables(
    const std::vector<graph::VertexId>& entries) {
  std::vector<std::pair<std::size_t, double>> ones;
  ones.reserve(entries.size());
  for (graph::VertexId v : entries) ones.emplace_back(v, 1.0);
  return merge_by_id(std::move(ones));
}

}  // namespace

ResourceState::ResourceState(const topo::Topology& topo)
    : bandwidth_capacity_(topo.link_bandwidth),
      residual_bandwidth_(topo.link_bandwidth),
      compute_capacity_(topo.server_compute),
      residual_compute_(topo.server_compute),
      table_capacity_(topo.switch_table_capacity),
      residual_table_(topo.switch_table_capacity) {
  if (bandwidth_capacity_.size() != topo.num_links() ||
      compute_capacity_.size() != topo.num_switches()) {
    throw std::invalid_argument("ResourceState: topology capacities not assigned");
  }
}

double ResourceState::bandwidth_utilization(graph::EdgeId e) const {
  const double cap = bandwidth_capacity_.at(e);
  return cap <= 0 ? 0.0 : 1.0 - residual_bandwidth_.at(e) / cap;
}

double ResourceState::compute_utilization(graph::VertexId v) const {
  const double cap = compute_capacity_.at(v);
  return cap <= 0 ? 0.0 : 1.0 - residual_compute_.at(v) / cap;
}

std::vector<std::pair<std::size_t, double>> aggregate_amounts(
    std::span<const std::pair<std::uint32_t, double>> entries) {
  for (const auto& [id, amount] : entries) {
    if (!(amount >= 0)) {
      throw std::invalid_argument("resources: negative footprint amount");
    }
  }
  return merge_by_id({entries.begin(), entries.end()});
}

double ResourceState::residual_table_entries(graph::VertexId v) const {
  if (!tracks_tables()) return std::numeric_limits<double>::infinity();
  return residual_table_.at(v);
}

bool ResourceState::can_allocate(const Footprint& fp) const {
  for (const auto& [e, amount] : aggregate_amounts(fp.bandwidth)) {
    if (amount > residual_bandwidth_.at(e) + kSlack) return false;
  }
  for (const auto& [v, amount] : aggregate_amounts(fp.compute)) {
    if (amount > residual_compute_.at(v) + kSlack) return false;
  }
  if (tracks_tables()) {
    for (const auto& [v, amount] : aggregate_tables(fp.table_entries)) {
      if (amount > residual_table_.at(v) + kSlack) return false;
    }
  }
  return true;
}

void ResourceState::allocate(const Footprint& fp) {
  const auto bw = aggregate_amounts(fp.bandwidth);
  const auto cp = aggregate_amounts(fp.compute);
  const auto tb = tracks_tables() ? aggregate_tables(fp.table_entries)
                                  : std::vector<std::pair<std::size_t, double>>{};
  for (const auto& [e, amount] : bw) {
    if (amount > residual_bandwidth_.at(e) + kSlack) {
      throw std::runtime_error("ResourceState::allocate: bandwidth overflow");
    }
  }
  for (const auto& [v, amount] : cp) {
    if (amount > residual_compute_.at(v) + kSlack) {
      throw std::runtime_error("ResourceState::allocate: compute overflow");
    }
  }
  for (const auto& [v, amount] : tb) {
    if (amount > residual_table_.at(v) + kSlack) {
      throw std::runtime_error("ResourceState::allocate: table overflow");
    }
  }
  for (const auto& [e, amount] : bw) {
    residual_bandwidth_[e] = std::max(0.0, residual_bandwidth_[e] - amount);
  }
  for (const auto& [v, amount] : cp) {
    residual_compute_[v] = std::max(0.0, residual_compute_[v] - amount);
  }
  for (const auto& [v, amount] : tb) {
    residual_table_[v] = std::max(0.0, residual_table_[v] - amount);
  }
}

void ResourceState::release(const Footprint& fp) {
  const auto bw = aggregate_amounts(fp.bandwidth);
  const auto cp = aggregate_amounts(fp.compute);
  const auto tb = tracks_tables() ? aggregate_tables(fp.table_entries)
                                  : std::vector<std::pair<std::size_t, double>>{};
  for (const auto& [e, amount] : bw) {
    if (residual_bandwidth_.at(e) + amount > bandwidth_capacity_[e] + kSlack) {
      throw std::runtime_error("ResourceState::release: bandwidth over capacity");
    }
  }
  for (const auto& [v, amount] : cp) {
    if (residual_compute_.at(v) + amount > compute_capacity_[v] + kSlack) {
      throw std::runtime_error("ResourceState::release: compute over capacity");
    }
  }
  for (const auto& [v, amount] : tb) {
    if (residual_table_.at(v) + amount > table_capacity_[v] + kSlack) {
      throw std::runtime_error("ResourceState::release: table over capacity");
    }
  }
  for (const auto& [e, amount] : bw) {
    residual_bandwidth_[e] = std::min(bandwidth_capacity_[e], residual_bandwidth_[e] + amount);
  }
  for (const auto& [v, amount] : cp) {
    residual_compute_[v] = std::min(compute_capacity_[v], residual_compute_[v] + amount);
  }
  for (const auto& [v, amount] : tb) {
    residual_table_[v] = std::min(table_capacity_[v], residual_table_[v] + amount);
  }
}

namespace {
void check_residuals(const char* what, const std::vector<double>& values,
                     const std::vector<double>& capacity) {
  if (values.size() != capacity.size()) {
    throw std::runtime_error(std::string("restore_residuals: ") + what +
                             " has " + std::to_string(values.size()) +
                             " entries, topology has " +
                             std::to_string(capacity.size()));
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!(values[i] >= 0.0) || values[i] > capacity[i] + kSlack) {
      throw std::runtime_error(std::string("restore_residuals: ") + what +
                               "[" + std::to_string(i) +
                               "] outside [0, capacity]");
    }
  }
}
}  // namespace

ResourceResiduals ResourceState::export_residuals() const {
  return ResourceResiduals{residual_bandwidth_, residual_compute_,
                           residual_table_};
}

void ResourceState::restore_residuals(const ResourceResiduals& residuals) {
  check_residuals("bandwidth", residuals.bandwidth, bandwidth_capacity_);
  check_residuals("compute", residuals.compute, compute_capacity_);
  check_residuals("table", residuals.table, table_capacity_);
  residual_bandwidth_ = residuals.bandwidth;
  residual_compute_ = residuals.compute;
  residual_table_ = residuals.table;
}

void fill_eligibility_mask(const ResourceState& state, const graph::Graph& g,
                           double bandwidth_mbps, std::vector<std::uint8_t>& mask) {
  mask.resize(g.num_edges());
  for (graph::EdgeId e = 0; e < mask.size(); ++e) {
    mask[e] = edge_eligible(state, g, e, bandwidth_mbps) ? 1 : 0;
  }
}

}  // namespace nfvm::nfv
