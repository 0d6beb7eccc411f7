#include "core/online_cp.h"

#include <functional>
#include <utility>
#include <vector>

#include "graph/steiner.h"
#include "graph/tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace nfvm::core {

OnlineCp::OnlineCp(const topo::Topology& topo, const OnlineCpOptions& options)
    : OnlineAlgorithm(topo),
      model_(options.alpha > 1.0 && options.beta > 1.0
                 ? ExponentialCostModel(options.alpha, options.beta)
                 : ExponentialCostModel::paper_default(topo.num_switches())),
      sigma_v_(options.sigma_v > 0.0
                   ? options.sigma_v
                   : static_cast<double>(topo.num_switches()) - 1.0),
      sigma_e_(options.sigma_e > 0.0
                   ? options.sigma_e
                   : static_cast<double>(topo.num_switches()) - 1.0),
      linear_weights_(options.linear_weights),
      name_(options.linear_weights ? "Online_CP(linear)" : "Online_CP"),
      graph_(topo.graph.num_vertices()),
      trees_(topo.servers) {
  for (graph::EdgeId e = 0; e < topo.graph.num_edges(); ++e) {
    const graph::Edge& ed = topo.graph.edge(e);
    graph_.add_edge(ed.u, ed.v, edge_weight(e));
  }
  NFVM_COUNTER_INC("core.online.view_rebuilds");
}

double OnlineCp::edge_weight(graph::EdgeId e) const {
  if (linear_weights_) return state_.bandwidth_utilization(e);
  return model_.edge_weight(e, state_);
}

double OnlineCp::server_weight(graph::VertexId v) const {
  if (linear_weights_) return state_.compute_utilization(v);
  return model_.server_weight(v, state_);
}

void OnlineCp::patch(const nfv::Footprint& footprint) {
  for (const auto& [e, amount] : footprint.bandwidth) {
    const double w = edge_weight(e);
    if (graph_.weight(e) != w) graph_.set_weight(e, w);
  }
}

void OnlineCp::after_allocate(const nfv::Footprint& footprint) {
  NFVM_SPAN("online/view_patch");
  patch(footprint);
  NFVM_COUNTER_INC("core.online.view_patches");
}

void OnlineCp::after_release(const nfv::Footprint& footprint) {
  NFVM_SPAN("online/view_release");
  // Residuals grew back: some weights fall and some links become eligible
  // again. The store sees both as decreases at its next update and repairs.
  patch(footprint);
}

void OnlineCp::after_restore() {
  // Every weight is a pure function of its residual, so re-reading them
  // from the restored residuals reproduces the uninterrupted run's graph
  // exactly; the dropped repair store never influences decisions.
  NFVM_SPAN("online/view_rebuild");
  for (graph::EdgeId e = 0; e < graph_.num_edges(); ++e) {
    const double w = edge_weight(e);
    if (graph_.weight(e) != w) graph_.set_weight(e, w);
  }
  trees_.clear();
  NFVM_COUNTER_INC("core.online.view_rebuilds");
}

namespace {

/// What a candidate-server evaluation produces, written into its own slot by
/// the parallel scan; the sequential replay loop consumes the slots in true
/// server order, so reasons and the admitted candidate are identical to a
/// sequential per-server scan (tests/reference keeps one as the oracle).
/// Only the Steiner evaluation and the candidate's cost live here — route
/// assembly, the delay check and the footprint are deferred to the replay
/// loop, which only pays them for candidates surviving the cost prune.
struct CpCandidateSlot {
  bool connected = false;
  bool over_sigma_e = false;
  double cost = 0.0;
  double steiner_weight = 0.0;  // st.weight share of cost, for provenance
  std::vector<graph::EdgeId> edges;  // physical ids
};

/// The pseudo-multicast tree of a candidate whose Steiner tree over
/// {s_k, v} ∪ D_k is `edges` (Algorithm 2, steps 10-12): rooted at s_k,
/// each destination's traffic goes s_k -> v -> d, so the links on the tree
/// path from v to u = LCA(v, D_k) carry the backhaul a second time.
PseudoMulticastTree backhaul_tree(const graph::Graph& g,
                                  const nfv::Request& request, graph::VertexId v,
                                  std::vector<graph::EdgeId> edges, double cost) {
  const graph::RootedTree rooted(g, edges, request.source);
  std::vector<graph::VertexId> lca_args;
  lca_args.push_back(v);
  lca_args.insert(lca_args.end(), request.destinations.begin(),
                  request.destinations.end());
  const graph::VertexId meet = rooted.lca(lca_args);

  PseudoMulticastTree tree;
  tree.source = request.source;
  tree.servers = {v};
  tree.cost = cost;
  const std::vector<graph::EdgeId> backhaul = rooted.path_edges(v, meet);
  edges.insert(edges.end(), backhaul.begin(), backhaul.end());
  tree.edge_uses = accumulate_edge_uses(std::move(edges));

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
    tree.routes.push_back(std::move(route));
  }
  return tree;
}

}  // namespace

AdmissionDecision OnlineCp::try_admit(const nfv::Request& request) {
  NFVM_SPAN("online_cp/try_admit");
  const double b = request.bandwidth_mbps;
  const double demand = request.compute_demand_mhz();

  RejectTracker reject("no server has sufficient residual computing",
                       RejectCause::kCompute);
  RequestRecord* const rec = active_record();
  NFVM_OBS_ONLY(util::Stopwatch phase_watch;)

  // Phase A: classify the servers. Compute-skips stay silent and the sigma_v
  // gate records its (low-rank) reason; survivors form the evaluation list.
  std::vector<graph::VertexId> eval;
  std::vector<double> eval_wv;
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
    eval.push_back(v);
    eval_wv.push_back(wv);
  }
  NFVM_COUNTER_ADD("core.online_cp.candidates_evaluated", eval.size());
  NFVM_OBS_ONLY(if (rec) {
    rec->fast_path = true;
    rec->servers_eligible = eval.size();
    rec->classify_us = phase_watch.elapsed_us();
  })

  if (eval.empty()) return rejected(reject);
  NFVM_COUNTER_INC("core.online.closure_scans");

  // Phase B: one shortest-path tree per distinct terminal for the WHOLE
  // scan instead of |D_k| + 2 per candidate. Server trees come from the
  // repair store (mostly kept or repaired, not recomputed); the source and
  // destination trees are computed fresh, in parallel.
  std::vector<graph::VertexId> sources;
  sources.reserve(1 + request.destinations.size() + eval.size());
  sources.push_back(request.source);
  sources.insert(sources.end(), request.destinations.begin(),
                 request.destinations.end());
  sources.insert(sources.end(), eval.begin(), eval.end());
  NFVM_OBS_ONLY(phase_watch.reset();)
  nfv::fill_eligibility_mask(state_, topo_->graph, b, mask_);
  trees_.update(graph_, sources, mask_);
  NFVM_OBS_ONLY(if (rec) rec->closure_us = phase_watch.elapsed_us();)
  const std::function<const graph::ShortestPaths&(graph::VertexId)> table_for =
      [this](graph::VertexId v) -> const graph::ShortestPaths& {
    return trees_.from(v);
  };

  // Phase C: evaluate every surviving candidate's Steiner tree and cost in
  // parallel. Each evaluation is pure (reads the graph + tables, writes its
  // slot); the cost prune of the sequential scan is deliberately NOT applied
  // here — it only suppresses work, never changes the admitted candidate,
  // and the replay loop below re-applies it for reason parity.
  std::vector<CpCandidateSlot> slots(eval.size());
  {
    NFVM_SPAN("online_cp/server_scan");
    NFVM_OBS_ONLY(phase_watch.reset();)
    util::ThreadPool::global().parallel_for(eval.size(), [&](std::size_t i) {
      const graph::VertexId v = eval[i];
      CpCandidateSlot& slot = slots[i];

      // Steiner tree over {s_k, v} ∪ D_k (Algorithm 2, step 8), straight
      // from the shared tables — edge ids are physical.
      std::vector<graph::VertexId> terminals;
      terminals.reserve(request.destinations.size() + 2);
      terminals.push_back(request.source);
      terminals.push_back(v);
      terminals.insert(terminals.end(), request.destinations.begin(),
                       request.destinations.end());
      graph::SteinerResult st =
          graph::kmb_steiner_from_tables(graph_, terminals, table_for);
      if (!st.connected) return;
      slot.connected = true;
      if (st.weight >= sigma_e_) {
        slot.over_sigma_e = true;
        return;
      }

      // Backhaul from v to the LCA of {v} ∪ D_k (Algorithm 2, steps 10-12)
      // prices the candidate; route assembly waits for the replay loop.
      const graph::RootedTree rooted(graph_, st.edges, request.source);
      std::vector<graph::VertexId> lca_args;
      lca_args.push_back(v);
      lca_args.insert(lca_args.end(), request.destinations.begin(),
                      request.destinations.end());
      const graph::VertexId meet = rooted.lca(lca_args);
      const double w_back = rooted.path_weight(v, meet);
      slot.cost = st.weight + eval_wv[i] + w_back;
      slot.steiner_weight = st.weight;
      slot.edges = std::move(st.edges);
    });
    NFVM_OBS_ONLY(if (rec) {
      rec->servers_evaluated = eval.size();
      rec->eval_us = phase_watch.elapsed_us();
    })
  }

  // Phase D: sequential replay in true server order — the branch structure
  // of a sequential per-server scan, so the winner, the reject reason and
  // the cause are the same at any thread count. Candidates surviving the
  // cost prune (a strictly decreasing cost chain, typically a handful) get
  // their routes, delay check and footprint here.
  CandidateReplay replay(*topo_, state_, request, reject, rec);
  NFVM_OBS_ONLY(phase_watch.reset();)
  for (std::size_t i = 0; i < eval.size(); ++i) {
    CpCandidateSlot& slot = slots[i];
    if (!slot.connected) {
      reject.update(RejectTracker::kRankCandidate,
                    "source, server and destinations are disconnected at b_k",
                    RejectCause::kBandwidth);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_disconnected;)
      continue;
    }
    if (slot.over_sigma_e) {
      reject.update(RejectTracker::kRankCandidate,
                    "every candidate tree exceeds the bandwidth threshold",
                    RejectCause::kThreshold);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_sigma_e;)
      continue;
    }
    if (replay.pruned(slot.cost)) continue;
    // Double-traversed backhaul links can need 2 b_k; charge honestly and
    // skip candidates that no longer fit.
    if (replay.offer(backhaul_tree(graph_, request, eval[i],
                                   std::move(slot.edges), slot.cost),
                     "backhaul multiplicities exceed residual bandwidth")) {
      NFVM_OBS_ONLY(if (rec) {
        rec->cost_steiner = slot.steiner_weight;
        rec->cost_server = eval_wv[i];
        rec->cost_backhaul = slot.cost - slot.steiner_weight - eval_wv[i];
      })
    }
  }
  NFVM_OBS_ONLY(if (rec) rec->realize_us = phase_watch.elapsed_us();)
  return std::move(replay).decide();
}

}  // namespace nfvm::core
