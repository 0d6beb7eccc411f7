#include "core/online_sp.h"

#include <vector>

#include "graph/sp_engine.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace nfvm::core {

namespace {

/// What pricing found for one candidate, replayed in true server order so
/// reasons and the winner match a sequential per-server scan
/// (tests/reference keeps one as the oracle). The tree, the delay check and
/// the footprint are deferred to the replay loop, which only pays them for
/// candidates surviving the cost prune.
struct SpCandidateSlot {
  bool server_reachable = false;
  bool dests_reachable = false;
  double cost = 0.0;
};

}  // namespace

AdmissionDecision OnlineSp::try_admit(const nfv::Request& request) {
  const double b = request.bandwidth_mbps;
  const double demand = request.compute_demand_mhz();

  RejectTracker reject("no server has sufficient residual computing",
                       RejectCause::kCompute);
  RequestRecord* const rec = active_record();
  NFVM_OBS_ONLY(util::Stopwatch phase_watch;)

  // Phase A: the compute gate (the only resource pruning done per server
  // before path evaluation). The survivors follow the source in `roots`.
  std::vector<graph::VertexId> roots{request.source};
  for (graph::VertexId v : topo_->servers) {
    if (state_.residual_compute(v) < demand) {
      NFVM_OBS_ONLY(if (rec) ++rec->skipped_compute;)
      continue;
    }
    roots.push_back(v);
  }
  const auto eval = std::span<const graph::VertexId>(roots).subspan(1);
  NFVM_OBS_ONLY(if (rec) {
    rec->fast_path = true;
    rec->servers_eligible = eval.size();
    rec->classify_us = phase_watch.elapsed_us();
  })
  if (eval.empty()) return rejected(reject);
  NFVM_COUNTER_INC("core.online.closure_scans");

  // Phase B: one shortest-path tree per distinct terminal (source +
  // candidate servers; a source that is itself a candidate gets one tree).
  NFVM_OBS_ONLY(phase_watch.reset();)
  nfv::fill_eligibility_mask(state_, topo_->graph, b, mask_);
  table_.clear();
  table_.compute(topo_->graph, roots, mask_);
  const graph::ShortestPaths& from_source = table_.from(request.source);
  NFVM_OBS_ONLY(if (rec) rec->closure_us = phase_watch.elapsed_us();
                phase_watch.reset();)

  // Phase C: price every candidate. A price is one walk over the two trees,
  // far cheaper than a pool hand-off, so the loop stays sequential.
  std::vector<SpCandidateSlot> slots(eval.size());
  for (std::size_t i = 0; i < eval.size(); ++i) {
    const graph::VertexId v = eval[i];
    SpCandidateSlot& slot = slots[i];
    slot.server_reachable = from_source.reachable(v);
    if (!slot.server_reachable) continue;
    const graph::ShortestPaths& from_server = table_.from(v);
    slot.dests_reachable = true;
    for (graph::VertexId d : request.destinations) {
      if (!from_server.reachable(d)) {
        slot.dests_reachable = false;
        break;
      }
    }
    if (!slot.dests_reachable) continue;
    // Cost = number of link traversals (unit weights on links).
    slot.cost = static_cast<double>(
        one_server_spt_traversals(request, v, from_source, from_server, marks_));
  }
  NFVM_OBS_ONLY(if (rec) {
    rec->servers_evaluated = eval.size();
    rec->eval_us = phase_watch.elapsed_us();
  } phase_watch.reset();)

  // Phase D: sequential replay — the branch ladder of a sequential
  // per-server scan (note the cost prune sits BEFORE the delay check,
  // silently). The tree, the delay check and the footprint are only paid
  // by prune survivors.
  CandidateReplay replay(*topo_, state_, request, reject, rec);
  for (std::size_t i = 0; i < eval.size(); ++i) {
    const SpCandidateSlot& slot = slots[i];
    if (!slot.server_reachable) {
      reject.update(RejectTracker::kRankCandidate,
                    "server unreachable at the demanded bandwidth",
                    RejectCause::kBandwidth);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_disconnected;)
      continue;
    }
    if (!slot.dests_reachable) {
      reject.update(RejectTracker::kRankCandidate,
                    "a destination is unreachable at the demanded bandwidth",
                    RejectCause::kBandwidth);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_disconnected;)
      continue;
    }
    if (replay.pruned(slot.cost)) continue;
    replay.offer(make_one_server_spt_tree(request, eval[i], from_source,
                                          table_.from(eval[i]), slot.cost, marks_),
                 "path overlaps exceed residual bandwidth");
  }
  NFVM_OBS_ONLY(if (rec) rec->realize_us = phase_watch.elapsed_us();)
  return std::move(replay).decide();
}

}  // namespace nfvm::core
