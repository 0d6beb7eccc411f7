#include "core/online_sp_static.h"

#include "obs/metrics.h"
#include "util/timer.h"

namespace nfvm::core {

AdmissionDecision OnlineSpStatic::try_admit(const nfv::Request& request) {
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

  // Every candidate failure has one rank, so the last one wins.
  RejectTracker reject("no server has sufficient residual computing",
                       RejectCause::kCompute);
  RequestRecord* const rec = active_record();
  NFVM_OBS_ONLY(util::Stopwatch phase_watch;)
  CandidateReplay replay(*topo_, state_, request, reject, rec);

  for (graph::VertexId v : topo_->servers) {
    if (state_.residual_compute(v) < demand) {
      NFVM_OBS_ONLY(if (rec) ++rec->skipped_compute;)
      continue;
    }
    NFVM_OBS_ONLY(if (rec) ++rec->servers_eligible;)
    if (!from_source.reachable(v)) {
      reject.update(RejectTracker::kRankCandidate,
                    "server disconnected from the source",
                    RejectCause::kBandwidth);
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
      reject.update(RejectTracker::kRankCandidate,
                    "a destination is disconnected", RejectCause::kBandwidth);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_disconnected;)
      continue;
    }

    // Cost = number of link traversals; only prune survivors get a tree.
    const double cost = static_cast<double>(
        one_server_spt_traversals(request, v, from_source, from_server, marks_));
    if (replay.pruned(cost)) continue;
    // A fixed route that no longer fits is not rerouted.
    replay.offer(
        make_one_server_spt_tree(request, v, from_source, from_server, cost, marks_),
        "fixed route exceeds residual bandwidth");
  }
  NFVM_OBS_ONLY(if (rec) rec->eval_us = phase_watch.elapsed_us();)
  return std::move(replay).decide();
}

}  // namespace nfvm::core
