// Online_CP (paper Algorithm 2): online NFV-enabled multicast admission with
// the exponential cost model and threshold-based admission control, K = 1.
//
// For each arriving request r_k:
//   1. Weight every link with w_e(k) = beta^{u_e} - 1 and every server with
//      w_v(k) = alpha^{u_v} - 1 (u = utilization before r_k).
//   2. For every server v with enough residual computing and w_v(k) < sigma_v,
//      find a KMB Steiner tree T over {s_k, v} ∪ D_k in the subgraph of links
//      with residual bandwidth >= b_k; skip when sum_{e in T} w_e(k) >= sigma_e.
//   3. Derive the pseudo-multicast tree: root T at s_k, compute
//      u = LCA(v, d_1, ..., d_|D_k|); processed traffic is backhauled from v
//      to u, so edges on the tree path v -> u are traversed twice.
//      cost(k) = w(T) + w_v(k) + w(p_{v,u}).
//   4. Admit with the cheapest feasible candidate, else reject.
// Competitive ratio O(log |V|) with alpha = beta = 2|V| and
// sigma_v = sigma_e = |V| - 1 (Theorem 2).
#pragma once

#include <cstdint>
#include <vector>

#include "core/cost_model.h"
#include "core/online.h"
#include "graph/graph.h"
#include "graph/sp_repair.h"

namespace nfvm::core {

struct OnlineCpOptions {
  /// alpha and beta; <= 1 means "use the paper default 2|V|".
  double alpha = 0.0;
  double beta = 0.0;
  /// Admission thresholds; <= 0 means "use the paper default |V| - 1".
  double sigma_v = 0.0;
  double sigma_e = 0.0;
  /// Ablation switch: replace the exponential weights with linear ones
  /// (w proportional to utilization), keeping everything else identical.
  /// Used by bench_ablation_cost_model to isolate the cost model's effect.
  bool linear_weights = false;
};

/// The admission scan keeps a persistent weighted copy of the network,
/// patched after each admission and release, and evaluates every candidate
/// server's KMB tree from one shared shortest-path tree per terminal; the
/// server trees persist in a repair store. Decisions are bit-identical at
/// any thread count. See docs/performance.md, "The online fast path".
class OnlineCp final : public OnlineAlgorithm {
 public:
  explicit OnlineCp(const topo::Topology& topo, const OnlineCpOptions& options = {});

  std::string_view name() const override { return name_; }
  double alpha() const noexcept { return model_.alpha(); }
  double beta() const noexcept { return model_.beta(); }
  double sigma_v() const noexcept { return sigma_v_; }
  double sigma_e() const noexcept { return sigma_e_; }

 protected:
  AdmissionDecision try_admit(const nfv::Request& request) override;
  void after_allocate(const nfv::Footprint& footprint) override;
  void after_release(const nfv::Footprint& footprint) override;
  void after_restore() override;

 private:
  double edge_weight(graph::EdgeId e) const;
  double server_weight(graph::VertexId v) const;
  /// Re-reads the weights of the footprint's links.
  void patch(const nfv::Footprint& footprint);

  ExponentialCostModel model_;
  double sigma_v_;
  double sigma_e_;
  bool linear_weights_;
  std::string name_;
  /// The weighted graph G_k: the topology's links with the same ids in the
  /// same adjacency order, each weighing edge_weight(e), a pure function of
  /// the link's residual bandwidth. Eligibility at b_k is not baked in: each
  /// request passes its links as `mask_` (nfv::fill_eligibility_mask).
  graph::Graph graph_;
  /// One persistent shortest-path tree per topology server, kept, repaired
  /// or recomputed so that it equals a fresh masked Dijkstra on `graph_`
  /// (graph/sp_repair.h); the request's other terminals are computed fresh.
  graph::SpTreeStore trees_;
  std::vector<std::uint8_t> mask_;
};

}  // namespace nfvm::core
