#include "reference/online_reference.h"

#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/delay.h"
#include "graph/dijkstra.h"
#include "graph/steiner.h"
#include "graph/tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reference/subgraph.h"
#include "util/timer.h"

namespace nfvm::reference {

using core::AdmissionDecision;
using core::DestinationRoute;
using core::PseudoMulticastTree;
using core::RejectCause;
using core::RejectTracker;
using core::RequestRecord;
using core::accumulate_edge_uses;
using core::meets_delay_bound;

OnlineCpRebuild::OnlineCpRebuild(const topo::Topology& topo,
                                 const core::OnlineCpOptions& options)
    : OnlineAlgorithm(topo),
      model_(options.alpha > 1.0 && options.beta > 1.0
                 ? core::ExponentialCostModel(options.alpha, options.beta)
                 : core::ExponentialCostModel::paper_default(topo.num_switches())),
      sigma_v_(options.sigma_v > 0.0
                   ? options.sigma_v
                   : static_cast<double>(topo.num_switches()) - 1.0),
      sigma_e_(options.sigma_e > 0.0
                   ? options.sigma_e
                   : static_cast<double>(topo.num_switches()) - 1.0),
      linear_weights_(options.linear_weights),
      name_(options.linear_weights ? "Online_CP(linear)" : "Online_CP") {}

double OnlineCpRebuild::edge_weight(graph::EdgeId e) const {
  if (linear_weights_) return state_.bandwidth_utilization(e);
  return model_.edge_weight(e, state_);
}

double OnlineCpRebuild::server_weight(graph::VertexId v) const {
  if (linear_weights_) return state_.compute_utilization(v);
  return model_.server_weight(v, state_);
}

AdmissionDecision OnlineCpRebuild::try_admit(const nfv::Request& request) {
  NFVM_SPAN("online_cp/try_admit");
  AdmissionDecision decision;
  const double b = request.bandwidth_mbps;
  const double demand = request.compute_demand_mhz();

  NFVM_OBS_ONLY(RequestRecord* const rec = active_record();
                util::Stopwatch phase_watch;)

  // Step 5 of Algorithm 2: the weighted graph G_k, restricted to links that
  // can still carry b_k.
  Subgraph sub = [&] {
    NFVM_SPAN("online_cp/build_weighted_graph");
    Subgraph filtered = filter_edges(topo_->graph, [&](graph::EdgeId e) {
      return nfv::edge_eligible(state_, topo_->graph, e, b);
    });
    for (graph::EdgeId e = 0; e < filtered.graph.num_edges(); ++e) {
      filtered.graph.set_weight(e, edge_weight(filtered.original_edge[e]));
    }
    return filtered;
  }();
  NFVM_OBS_ONLY(if (rec) rec->classify_us = phase_watch.elapsed_us();
                phase_watch.reset();)

  struct Candidate {
    double cost = 0.0;
    graph::VertexId server = graph::kInvalidVertex;
    PseudoMulticastTree tree;
    nfv::Footprint footprint;
  };
  std::optional<Candidate> best;
  RejectTracker reject("no server has sufficient residual computing",
                       RejectCause::kCompute);
  NFVM_OBS_ONLY(std::uint64_t candidates_evaluated = 0;)

  NFVM_SPAN("online_cp/server_scan");
  for (graph::VertexId v : topo_->servers) {
    if (state_.residual_compute(v) < demand) {
      NFVM_OBS_ONLY(if (rec) ++rec->skipped_compute;)
      continue;
    }
    const double wv = server_weight(v);
    if (wv >= sigma_v_) {
      reject.update(RejectTracker::kRankThreshold,
                    "all candidate servers exceed the computing threshold",
                    RejectCause::kThreshold);
      NFVM_OBS_ONLY(if (rec) ++rec->skipped_sigma_v;)
      continue;
    }
    NFVM_OBS_ONLY(++candidates_evaluated;)

    // Steiner tree over {s_k, v} ∪ D_k (Algorithm 2, step 8).
    std::vector<graph::VertexId> terminals;
    terminals.reserve(request.destinations.size() + 2);
    terminals.push_back(request.source);
    terminals.push_back(v);
    terminals.insert(terminals.end(), request.destinations.begin(),
                     request.destinations.end());
    const graph::SteinerResult st = graph::kmb_steiner(sub.graph, terminals);
    if (!st.connected) {
      reject.update(RejectTracker::kRankCandidate,
                    "source, server and destinations are disconnected at b_k",
                    RejectCause::kBandwidth);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_disconnected;)
      continue;
    }
    if (st.weight >= sigma_e_) {
      reject.update(RejectTracker::kRankCandidate,
                    "every candidate tree exceeds the bandwidth threshold",
                    RejectCause::kThreshold);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_sigma_e;)
      continue;
    }

    // Pseudo-multicast tree: root at s_k, backhaul from v to the LCA of
    // {v} ∪ D_k (Algorithm 2, steps 10-12).
    const graph::RootedTree rooted(sub.graph, st.edges, request.source);
    std::vector<graph::VertexId> lca_args;
    lca_args.push_back(v);
    lca_args.insert(lca_args.end(), request.destinations.begin(),
                    request.destinations.end());
    const graph::VertexId meet = rooted.lca(lca_args);
    const double w_back = rooted.path_weight(v, meet);
    const double cost = st.weight + wv + w_back;
    if (best.has_value() && cost >= best->cost) {
      NFVM_OBS_ONLY(if (rec) ++rec->cost_pruned;)
      continue;
    }

    Candidate cand;
    cand.cost = cost;
    cand.server = v;
    cand.tree.source = request.source;
    cand.tree.servers = {v};
    cand.tree.cost = cost;

    std::vector<graph::EdgeId> traversals;  // physical ids
    traversals.reserve(st.edges.size());
    for (graph::EdgeId e : st.edges) traversals.push_back(sub.original_edge[e]);
    for (graph::EdgeId e : rooted.path_edges(v, meet)) {
      traversals.push_back(sub.original_edge[e]);
    }
    cand.tree.edge_uses = accumulate_edge_uses(std::move(traversals));

    const std::vector<graph::VertexId> to_server =
        rooted.path_vertices(request.source, v);
    for (graph::VertexId d : request.destinations) {
      DestinationRoute route;
      route.destination = d;
      route.server = v;
      route.walk = to_server;
      route.server_index = route.walk.size() - 1;
      const std::vector<graph::VertexId> down = rooted.path_vertices(v, d);
      route.walk.insert(route.walk.end(), down.begin() + 1, down.end());
      cand.tree.routes.push_back(std::move(route));
    }

    if (!meets_delay_bound(*topo_, request, cand.tree)) {
      reject.update(RejectTracker::kRankCandidate,
                    "no candidate tree meets the delay bound",
                    RejectCause::kDelay);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_delay;)
      continue;
    }
    cand.footprint = cand.tree.footprint(request, topo_->graph);
    if (!state_.can_allocate(cand.footprint)) {
      // Double-traversed backhaul links can need 2 b_k; charge honestly and
      // skip candidates that no longer fit.
      reject.update(RejectTracker::kRankCandidate,
                    "backhaul multiplicities exceed residual bandwidth",
                    RejectCause::kBandwidth);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_capacity;)
      continue;
    }
    NFVM_OBS_ONLY(if (rec) {
      ++rec->candidates_feasible;
      rec->chosen_server = static_cast<std::int64_t>(v);
      rec->cost_total = cost;
      rec->cost_steiner = st.weight;
      rec->cost_server = wv;
      rec->cost_backhaul = w_back;
    })
    best = std::move(cand);
  }
  NFVM_COUNTER_ADD("core.online_cp.candidates_evaluated", candidates_evaluated);
  NFVM_OBS_ONLY(if (rec) {
    rec->servers_eligible = candidates_evaluated;
    rec->servers_evaluated = candidates_evaluated;
    rec->eval_us = phase_watch.elapsed_us();
  })

  if (!best.has_value()) {
    decision.reject_reason = std::string(reject.reason());
    decision.reject_cause = reject.cause();
    return decision;
  }
  decision.admitted = true;
  decision.tree = std::move(best->tree);
  decision.footprint = std::move(best->footprint);
  return decision;
}

PseudoMulticastTree make_one_server_spt_tree(
    const nfv::Request& request, graph::VertexId server,
    const graph::ShortestPaths& from_source, const graph::ShortestPaths& from_server,
    const std::vector<graph::EdgeId>* to_physical, double cost) {
  if (!from_source.reachable(server)) {
    throw std::invalid_argument("make_one_server_spt_tree: server unreachable");
  }
  for (graph::VertexId d : request.destinations) {
    if (!from_server.reachable(d)) {
      throw std::invalid_argument("make_one_server_spt_tree: destination unreachable");
    }
  }
  const auto map_edge = [to_physical](graph::EdgeId e) {
    return to_physical == nullptr ? e : to_physical->at(e);
  };

  PseudoMulticastTree tree;
  tree.source = request.source;
  tree.servers = {server};
  tree.cost = cost;

  std::map<graph::EdgeId, int> mult;  // physical ids
  for (graph::EdgeId e : graph::path_edges(from_source, server)) ++mult[map_edge(e)];
  std::set<graph::EdgeId> spt_edges;  // g-local ids, deduped across dests
  for (graph::VertexId d : request.destinations) {
    for (graph::EdgeId e : graph::path_edges(from_server, d)) spt_edges.insert(e);
  }
  for (graph::EdgeId e : spt_edges) ++mult[map_edge(e)];
  tree.edge_uses.assign(mult.begin(), mult.end());

  const std::vector<graph::VertexId> to_server =
      graph::path_vertices(from_source, server);
  for (graph::VertexId d : request.destinations) {
    DestinationRoute route;
    route.destination = d;
    route.server = server;
    route.walk = to_server;
    route.server_index = route.walk.size() - 1;
    const std::vector<graph::VertexId> down = graph::path_vertices(from_server, d);
    route.walk.insert(route.walk.end(), down.begin() + 1, down.end());
    tree.routes.push_back(std::move(route));
  }
  return tree;
}

AdmissionDecision OnlineSpRebuild::try_admit(const nfv::Request& request) {
  AdmissionDecision decision;
  const double b = request.bandwidth_mbps;
  const double demand = request.compute_demand_mhz();

  NFVM_OBS_ONLY(RequestRecord* const rec = active_record();
                util::Stopwatch phase_watch;)

  // Remove links and servers without enough available resources; all
  // remaining links weigh 1.
  const Subgraph sub = filter_edges(topo_->graph, [&](graph::EdgeId e) {
    return nfv::edge_eligible(state_, topo_->graph, e, b);
  });

  const graph::ShortestPaths from_source = graph::dijkstra(sub.graph, request.source);
  NFVM_OBS_ONLY(if (rec) rec->classify_us = phase_watch.elapsed_us();
                phase_watch.reset();)

  struct Candidate {
    double cost = 0.0;
    PseudoMulticastTree tree;
    nfv::Footprint footprint;
  };
  std::optional<Candidate> best;
  RejectTracker reject("no server has sufficient residual computing",
                       RejectCause::kCompute);

  for (graph::VertexId v : topo_->servers) {
    if (state_.residual_compute(v) < demand) {
      NFVM_OBS_ONLY(if (rec) ++rec->skipped_compute;)
      continue;
    }
    NFVM_OBS_ONLY(if (rec) ++rec->servers_eligible;)
    if (!from_source.reachable(v)) {
      reject.update(RejectTracker::kRankCandidate,
                    "server unreachable at the demanded bandwidth",
                    RejectCause::kBandwidth);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_disconnected;)
      continue;
    }
    const graph::ShortestPaths from_server = graph::dijkstra(sub.graph, v);
    NFVM_OBS_ONLY(if (rec) ++rec->servers_evaluated;)
    bool all_reachable = true;
    for (graph::VertexId d : request.destinations) {
      if (!from_server.reachable(d)) {
        all_reachable = false;
        break;
      }
    }
    if (!all_reachable) {
      reject.update(RejectTracker::kRankCandidate,
                    "a destination is unreachable at the demanded bandwidth",
                    RejectCause::kBandwidth);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_disconnected;)
      continue;
    }

    PseudoMulticastTree tree = make_one_server_spt_tree(
        request, v, from_source, from_server, &sub.original_edge, /*cost=*/0.0);
    // Cost = number of link traversals (unit weights on links).
    tree.cost = static_cast<double>(tree.total_link_traversals());
    if (best.has_value() && tree.cost >= best->cost) {
      NFVM_OBS_ONLY(if (rec) ++rec->cost_pruned;)
      continue;
    }
    if (!meets_delay_bound(*topo_, request, tree)) {
      reject.update(RejectTracker::kRankCandidate,
                    "no candidate tree meets the delay bound",
                    RejectCause::kDelay);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_delay;)
      continue;
    }

    nfv::Footprint footprint = tree.footprint(request, topo_->graph);
    if (!state_.can_allocate(footprint)) {
      reject.update(RejectTracker::kRankCandidate,
                    "path overlaps exceed residual bandwidth",
                    RejectCause::kBandwidth);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_capacity;)
      continue;
    }
    NFVM_OBS_ONLY(if (rec) {
      ++rec->candidates_feasible;
      rec->chosen_server = static_cast<std::int64_t>(v);
      rec->cost_total = tree.cost;
    })
    best = Candidate{tree.cost, std::move(tree), std::move(footprint)};
  }
  NFVM_OBS_ONLY(if (rec) rec->eval_us = phase_watch.elapsed_us();)

  if (!best.has_value()) {
    decision.reject_reason = std::string(reject.reason());
    decision.reject_cause = reject.cause();
    return decision;
  }
  decision.admitted = true;
  decision.tree = std::move(best->tree);
  decision.footprint = std::move(best->footprint);
  return decision;
}

}  // namespace nfvm::reference
