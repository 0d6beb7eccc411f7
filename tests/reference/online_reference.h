// Test-only reference for the online admission scans: the per-request
// rebuild scans that core::OnlineCp and core::OnlineSp replaced with the
// shared-closure scan over a persistent weighted view. Every request they
// filter the graph by residual bandwidth (reference/subgraph.h), reweight it
// from scratch and run one Steiner tree or Dijkstra per candidate server.
// They keep the old counters, spans and RequestRecord fields, so tests can
// require the production classes to take bit-identical decisions, and
// bench_micro_online_admit can time the production scan against them.
#pragma once

#include <string>
#include <string_view>

#include "core/cost_model.h"
#include "core/online.h"
#include "core/online_cp.h"

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

/// The SP baseline with the rebuild scan: the bandwidth-filtered graph is
/// built per request, with one Dijkstra from the source and one from each
/// reachable candidate server.
class OnlineSpRebuild final : public core::OnlineAlgorithm {
 public:
  explicit OnlineSpRebuild(const topo::Topology& topo) : OnlineAlgorithm(topo) {}

  std::string_view name() const override { return "SP"; }

 protected:
  core::AdmissionDecision try_admit(const nfv::Request& request) override;
};

}  // namespace nfvm::reference
