// Test-only reference for the online admission scans: the per-request
// rebuild scans that core::OnlineCp and core::OnlineSp replaced with the
// shared-closure scan over a persistent weighted view. Every request they
// filter the graph by residual bandwidth (reference/subgraph.h), reweight it
// from scratch and run one Steiner tree or Dijkstra per candidate server.
// They keep the old counters, spans and RequestRecord fields, so tests can
// require the production classes to take bit-identical decisions, and
// bench_micro_online_admit can time the production scan against them. The
// SP scan also keeps the node-based pseudo-tree assembly the production
// scans replaced.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/cost_model.h"
#include "core/online.h"
#include "core/online_cp.h"
#include "graph/dijkstra.h"

namespace nfvm::reference {

/// Online_CP (paper Algorithm 2) with the rebuild scan: the weighted graph
/// G_k restricted to links that can carry b_k is built per request, and
/// each candidate server runs its own KMB tree (|D_k| + 2 Dijkstras).
class OnlineCpRebuild final : public core::OnlineAlgorithm {
 public:
  explicit OnlineCpRebuild(const topo::Topology& topo,
                           const core::OnlineCpOptions& options = {});

  std::string_view name() const override { return name_; }

 protected:
  core::AdmissionDecision try_admit(const nfv::Request& request) override;

 private:
  double edge_weight(graph::EdgeId e) const;
  double server_weight(graph::VertexId v) const;

  core::ExponentialCostModel model_;
  double sigma_v_;
  double sigma_e_;
  bool linear_weights_;
  std::string name_;
};

/// The SP baselines' one-server pseudo-multicast tree as the node-based
/// assembly core::make_one_server_spt_tree replaced: the path source ->
/// server and the server -> D_k path union gathered in a std::map and a
/// std::set, routes spliced from graph::path_vertices. `to_physical`
/// (optional) remaps the trees' edge ids to physical ids when they were
/// computed on a filtered subgraph. Throws std::invalid_argument when the
/// server or a destination is unreachable.
core::PseudoMulticastTree make_one_server_spt_tree(
    const nfv::Request& request, graph::VertexId server,
    const graph::ShortestPaths& from_source, const graph::ShortestPaths& from_server,
    const std::vector<graph::EdgeId>* to_physical, double cost);

/// The SP baseline with the rebuild scan: the bandwidth-filtered graph is
/// built per request, with one Dijkstra from the source and one from each
/// reachable candidate server, and every reachable candidate's tree is
/// assembled by make_one_server_spt_tree above.
class OnlineSpRebuild final : public core::OnlineAlgorithm {
 public:
  explicit OnlineSpRebuild(const topo::Topology& topo) : OnlineAlgorithm(topo) {}

  std::string_view name() const override { return "SP"; }

 protected:
  core::AdmissionDecision try_admit(const nfv::Request& request) override;
};

}  // namespace nfvm::reference
