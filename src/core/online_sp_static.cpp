#include "core/online_sp_static.h"

#include "core/delay.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace nfvm::core {

AdmissionDecision OnlineSpStatic::try_admit(const nfv::Request& request) {
  AdmissionDecision decision;
  const double demand = request.compute_demand_mhz();
  // The fixed tree from `v`, computed on its first use; each call counts
  // one of graph.spcache.{hits,misses}.
  const auto fixed_tree = [this](graph::VertexId v) -> const graph::ShortestPaths& {
    if (table_.compute(topo_->graph, {&v, 1}) != 0) {
      NFVM_COUNTER_INC("graph.spcache.misses");
    } else {
      NFVM_COUNTER_INC("graph.spcache.hits");
    }
    return table_.from(v);
  };
  const graph::ShortestPaths& from_source = fixed_tree(request.source);

  struct Candidate {
    double cost = 0.0;
    PseudoMulticastTree tree;
    nfv::Footprint footprint;
  };
  std::optional<Candidate> best;
  std::string_view reason = "no server has sufficient residual computing";
  RejectCause cause = RejectCause::kCompute;
  NFVM_OBS_ONLY(RequestRecord* const rec = active_record();
                util::Stopwatch phase_watch;)

  for (graph::VertexId v : topo_->servers) {
    if (state_.residual_compute(v) < demand) {
      NFVM_OBS_ONLY(if (rec) ++rec->skipped_compute;)
      continue;
    }
    NFVM_OBS_ONLY(if (rec) ++rec->servers_eligible;)
    if (!from_source.reachable(v)) {
      reason = "server disconnected from the source";
      cause = RejectCause::kBandwidth;
      NFVM_OBS_ONLY(if (rec) ++rec->failed_disconnected;)
      continue;
    }
    const graph::ShortestPaths& from_server = fixed_tree(v);
    NFVM_OBS_ONLY(if (rec) ++rec->servers_evaluated;)
    bool all_reachable = true;
    for (graph::VertexId d : request.destinations) {
      if (!from_server.reachable(d)) {
        all_reachable = false;
        break;
      }
    }
    if (!all_reachable) {
      reason = "a destination is disconnected";
      cause = RejectCause::kBandwidth;
      NFVM_OBS_ONLY(if (rec) ++rec->failed_disconnected;)
      continue;
    }

    // Cost = number of link traversals; only prune survivors get a tree.
    const double cost = static_cast<double>(
        one_server_spt_traversals(request, v, from_source, from_server, marks_));
    if (best.has_value() && cost >= best->cost) {
      NFVM_OBS_ONLY(if (rec) ++rec->cost_pruned;)
      continue;
    }
    NFVM_COUNTER_INC("core.online.trees_assembled");
    PseudoMulticastTree tree =
        make_one_server_spt_tree(request, v, from_source, from_server, cost, marks_);
    if (!meets_delay_bound(*topo_, request, tree)) {
      reason = "no candidate tree meets the delay bound";
      cause = RejectCause::kDelay;
      NFVM_OBS_ONLY(if (rec) ++rec->failed_delay;)
      continue;
    }

    nfv::Footprint footprint = tree.footprint(request, topo_->graph);
    if (!state_.can_allocate(footprint)) {
      // The fixed route no longer fits; a static policy does not reroute.
      reason = "fixed route exceeds residual bandwidth";
      cause = RejectCause::kBandwidth;
      NFVM_OBS_ONLY(if (rec) ++rec->failed_capacity;)
      continue;
    }
    NFVM_OBS_ONLY(if (rec) {
      ++rec->candidates_feasible;
      rec->chosen_server = static_cast<std::int64_t>(v);
      rec->cost_total = cost;
    })
    best = Candidate{cost, std::move(tree), std::move(footprint)};
  }
  NFVM_OBS_ONLY(if (rec) rec->eval_us = phase_watch.elapsed_us();)

  if (!best.has_value()) {
    decision.reject_reason = std::string(reason);
    decision.reject_cause = cause;
    return decision;
  }
  decision.admitted = true;
  decision.tree = std::move(best->tree);
  decision.footprint = std::move(best->footprint);
  return decision;
}

}  // namespace nfvm::core
