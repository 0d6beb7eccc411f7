#include "core/online.h"

#include <stdexcept>
#include <utility>

#include "core/delay.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace nfvm::core {

std::string_view to_string(RejectCause cause) {
  switch (cause) {
    case RejectCause::kNone: return "none";
    case RejectCause::kBandwidth: return "bandwidth";
    case RejectCause::kCompute: return "compute";
    case RejectCause::kThreshold: return "threshold";
    case RejectCause::kDelay: return "delay";
    case RejectCause::kOther: return "other";
  }
  return "other";
}

AdmissionDecision rejected(const RejectTracker& reject) {
  AdmissionDecision decision;
  decision.reject_reason = std::string(reject.reason());
  decision.reject_cause = reject.cause();
  return decision;
}

bool CandidateReplay::pruned(double cost) {
  if (best_.admitted && best_.tree.cost <= cost) {
    NFVM_OBS_ONLY(if (record_) ++record_->cost_pruned;)
    return true;
  }
  NFVM_COUNTER_INC("core.online.trees_assembled");
  return false;
}

bool CandidateReplay::offer(PseudoMulticastTree tree,
                            std::string_view capacity_reason) {
  if (!meets_delay_bound(*topo_, *request_, tree)) {
    reject_->update(RejectTracker::kRankCandidate,
                    "no candidate tree meets the delay bound",
                    RejectCause::kDelay);
    NFVM_OBS_ONLY(if (record_) ++record_->failed_delay;)
    return false;
  }
  nfv::Footprint footprint = tree.footprint(*request_, topo_->graph);
  if (!state_->can_allocate(footprint)) {
    reject_->update(RejectTracker::kRankCandidate, capacity_reason,
                    RejectCause::kBandwidth);
    NFVM_OBS_ONLY(if (record_) ++record_->failed_capacity;)
    return false;
  }
  NFVM_OBS_ONLY(if (record_) {
    ++record_->candidates_feasible;
    record_->chosen_server = static_cast<std::int64_t>(tree.servers.front());
    record_->cost_total = tree.cost;
  })
  best_.admitted = true;
  best_.tree = std::move(tree);
  best_.footprint = std::move(footprint);
  return true;
}

AdmissionDecision CandidateReplay::decide() && {
  if (!best_.admitted) return rejected(*reject_);
  return std::move(best_);
}

OnlineAlgorithm::OnlineAlgorithm(const topo::Topology& topo)
    : topo_(&topo), state_(topo) {
#if NFVM_OBS
  // Pre-register the full rejection breakdown so a metrics export always
  // carries every online.reject.* key, including the zero ones - consumers
  // can sum the family without special-casing absent counters.
  obs::Registry& registry = obs::Registry::global();
  registry.counter("online.reject.bandwidth");
  registry.counter("online.reject.compute");
  registry.counter("online.reject.threshold");
  registry.counter("online.reject.delay");
  registry.counter("online.reject.other");
  spcache_hits_counter_ = registry.counter("graph.spcache.hits");
  spcache_misses_counter_ = registry.counter("graph.spcache.misses");
#endif
}

AdmissionDecision OnlineAlgorithm::process(const nfv::Request& request) {
  NFVM_SPAN("online/admit");
  nfv::validate_request(request, topo_->graph);
#if NFVM_OBS
  RequestRecord record;
  util::Stopwatch total_watch;
  std::uint64_t spcache_hits_before = 0;
  std::uint64_t spcache_misses_before = 0;
  if (record_provenance_) {
    record.request_id = request.id;
    record.servers_total = topo_->servers.size();
    spcache_hits_before = spcache_hits_counter_->value();
    spcache_misses_before = spcache_misses_counter_->value();
    active_record_ = &record;
  }
#endif
  AdmissionDecision decision = try_admit(request);
  NFVM_OBS_ONLY(active_record_ = nullptr;)
  if (decision.admitted) {
    // try_admit must hand back a footprint that fits; allocate() re-checks
    // and throws on a contract violation rather than over-committing.
    state_.allocate(decision.footprint);
#if NFVM_OBS
    if (record_provenance_) {
      const util::Stopwatch patch_watch;
      after_allocate(decision.footprint);
      record.view_patch_us = patch_watch.elapsed_us();
    } else {
      after_allocate(decision.footprint);
    }
#else
    after_allocate(decision.footprint);
#endif
    ++num_admitted_;
    decision.reject_cause = RejectCause::kNone;
    NFVM_COUNTER_INC("online.admitted");
  } else {
    ++num_rejected_;
    if (decision.reject_cause == RejectCause::kNone) {
      decision.reject_cause = RejectCause::kOther;
    }
    NFVM_COUNTER_INC("online.rejected");
    switch (decision.reject_cause) {
      case RejectCause::kBandwidth:
        NFVM_COUNTER_INC("online.reject.bandwidth");
        break;
      case RejectCause::kCompute:
        NFVM_COUNTER_INC("online.reject.compute");
        break;
      case RejectCause::kThreshold:
        NFVM_COUNTER_INC("online.reject.threshold");
        break;
      case RejectCause::kDelay:
        NFVM_COUNTER_INC("online.reject.delay");
        break;
      default:
        NFVM_COUNTER_INC("online.reject.other");
        break;
    }
  }
  NFVM_COUNTER_INC("online.requests");
#if NFVM_OBS
  if (record_provenance_) {
    record.admitted = decision.admitted;
    record.total_us = total_watch.elapsed_us();
    record.spcache_hits = spcache_hits_counter_->value() - spcache_hits_before;
    record.spcache_misses =
        spcache_misses_counter_->value() - spcache_misses_before;
    decision.record = std::make_shared<const RequestRecord>(std::move(record));
  }
#endif
  return decision;
}

void OnlineAlgorithm::release(const nfv::Footprint& footprint) {
  state_.release(footprint);
  after_release(footprint);
}

void OnlineAlgorithm::restore_resources(const nfv::ResourceResiduals& residuals) {
  state_.restore_residuals(residuals);
  after_restore();
}

void OnlineAlgorithm::after_allocate(const nfv::Footprint& /*footprint*/) {}
void OnlineAlgorithm::after_release(const nfv::Footprint& /*footprint*/) {}
void OnlineAlgorithm::after_restore() {}

}  // namespace nfvm::core
