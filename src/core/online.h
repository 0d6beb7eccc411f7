// Shared interface for online NFV-enabled multicast admission algorithms.
//
// Requests arrive one by one; the algorithm decides admit/reject without
// knowledge of future arrivals, and admitted requests permanently consume
// resources (the paper's throughput experiments have no departures; the
// interface still supports release for long-running deployments).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/pseudo_tree.h"
#include "core/request_record.h"
#include "nfv/request.h"
#include "nfv/resources.h"
#include "obs/metrics.h"
#include "topology/topology.h"

namespace nfvm::core {

/// Machine-readable rejection classification. `reject_reason` keeps the
/// human-oriented sentence; this enum is what metrics breakdowns
/// (`online.reject.*` counters, SimulationMetrics::rejects_by_cause) key on.
enum class RejectCause : std::uint8_t {
  kNone = 0,   ///< admitted (or cause not recorded)
  kBandwidth,  ///< residual link bandwidth / connectivity at b_k
  kCompute,    ///< residual server computing capacity
  kThreshold,  ///< Online_CP's sigma_v / sigma_e admission thresholds
  kDelay,      ///< end-to-end delay bound
  kOther,      ///< anything else
};
inline constexpr std::size_t kNumRejectCauses = 6;

/// Stable lowercase token ("none", "bandwidth", "compute", "threshold",
/// "delay", "other") - used as the `online.reject.<token>` metric suffix and
/// in event logs.
std::string_view to_string(RejectCause cause);

/// Reject-reason bookkeeping for a candidate-server scan with explicit
/// precedence, replacing the old string-comparison special case in
/// OnlineCp::try_admit. Candidates are examined in order; an update is
/// applied iff its rank is >= the current value's rank, so equal ranks keep
/// the historical last-writer-wins semantics while a low-rank gate (e.g. the
/// sigma_v pre-scan threshold) can never overwrite a more specific
/// evaluated-candidate failure.
class RejectTracker {
 public:
  /// The initial reason before any server reported anything.
  static constexpr int kRankDefault = 0;
  /// A pre-evaluation gate skipped the server (Online_CP's sigma_v check).
  static constexpr int kRankThreshold = 1;
  /// An evaluated candidate failed (disconnection, sigma_e, delay, capacity).
  static constexpr int kRankCandidate = 2;

  RejectTracker(std::string_view reason, RejectCause cause)
      : reason_(reason), cause_(cause) {}

  /// Applies (reason, cause) iff `rank` >= the rank of the current value.
  void update(int rank, std::string_view reason, RejectCause cause) {
    if (rank < rank_) return;
    rank_ = rank;
    reason_ = reason;
    cause_ = cause;
  }

  std::string_view reason() const noexcept { return reason_; }
  RejectCause cause() const noexcept { return cause_; }
  int rank() const noexcept { return rank_; }

 private:
  int rank_ = kRankDefault;
  std::string_view reason_;
  RejectCause cause_;
};

struct AdmissionDecision {
  bool admitted = false;
  std::string reject_reason;
  /// Classification of reject_reason; kNone iff admitted.
  RejectCause reject_cause = RejectCause::kNone;
  /// Valid iff admitted.
  PseudoMulticastTree tree;
  /// Resources charged for the request; valid iff admitted.
  nfv::Footprint footprint;
  /// Decision provenance (core/request_record.h). Null unless the algorithm
  /// has set_record_provenance(true) and the build has NFVM_OBS=1; shared so
  /// copying decisions stays cheap.
  std::shared_ptr<const RequestRecord> record;
};

/// The rejection carrying the tracker's reason and cause.
AdmissionDecision rejected(const RejectTracker& reject);

/// The last phase every online scan shares: candidates are offered in true
/// server order, each as a one-server pseudo-multicast tree, and the
/// cheapest one that meets the delay bound and fits the residuals is
/// admitted. A scan asks pruned() before it assembles a candidate's tree,
/// so only candidates that can still win pay for one, then hands the tree
/// to offer(). Failures go to the scan's RejectTracker at kRankCandidate
/// and, with a record, to its reject-context counters.
class CandidateReplay {
 public:
  /// Everything but `reject` and `record` (null when not recording) is
  /// read only; all must outlive the replay.
  CandidateReplay(const topo::Topology& topo, const nfv::ResourceState& state,
                  const nfv::Request& request, RejectTracker& reject,
                  RequestRecord* record)
      : topo_(&topo), state_(&state), request_(&request), reject_(&reject),
        record_(record) {}

  /// True when the incumbent costs at most `cost`: the candidate cannot win
  /// (counted as cost_pruned). Otherwise counts core.online.trees_assembled
  /// for the tree the caller assembles next.
  bool pruned(double cost);

  /// Checks `tree` against the delay bound, then its footprint against the
  /// residuals (a failure reports `capacity_reason`). A tree passing both
  /// becomes the incumbent, and offer returns true.
  bool offer(PseudoMulticastTree tree, std::string_view capacity_reason);

  /// The incumbent's admission, or rejected(reject).
  AdmissionDecision decide() &&;

 private:
  const topo::Topology* topo_;
  const nfv::ResourceState* state_;
  const nfv::Request* request_;
  RejectTracker* reject_;
  [[maybe_unused]] RequestRecord* record_;  // read only with NFVM_OBS=1
  /// The incumbent; admitted once some candidate was accepted.
  AdmissionDecision best_;
};

class OnlineAlgorithm {
 public:
  /// The algorithm owns a ResourceState initialized to the topology's full
  /// capacities. The topology must outlive the algorithm.
  explicit OnlineAlgorithm(const topo::Topology& topo);
  virtual ~OnlineAlgorithm() = default;

  OnlineAlgorithm(const OnlineAlgorithm&) = delete;
  OnlineAlgorithm& operator=(const OnlineAlgorithm&) = delete;

  virtual std::string_view name() const = 0;

  /// Processes one arriving request: decides, and on admission allocates the
  /// footprint. Throws std::invalid_argument for malformed requests.
  AdmissionDecision process(const nfv::Request& request);

  /// Releases a previously admitted request's resources (departures).
  void release(const nfv::Footprint& footprint);

  /// Snapshot-restore support (serve/snapshot.h): installs the residual
  /// vectors recorded in a snapshot bit-for-bit and rebuilds
  /// residual-derived state (after_restore hook; e.g. OnlineCp's weighted
  /// graph, whose weights are a pure function of the residuals). Replaying
  /// the active footprints instead would reassociate the floating-point
  /// accumulation and drift from the uninterrupted run by an ulp - carrying
  /// the residual doubles themselves is what makes the subsequent decision
  /// stream byte-identical. Throws std::runtime_error on a shape or range
  /// mismatch (snapshot from a different network).
  void restore_resources(const nfv::ResourceResiduals& residuals);

  /// Restores the lifetime admitted/rejected counters recorded in a
  /// snapshot (restore_admitted deliberately does not count).
  void restore_counts(std::size_t admitted, std::size_t rejected) noexcept {
    num_admitted_ = admitted;
    num_rejected_ = rejected;
  }

  /// When enabled, every process() call attaches a RequestRecord (phase
  /// timings, scan provenance, reject context) to the returned decision.
  /// Costs a few clock reads and one small allocation per request; under
  /// -DNFVM_OBS=0 the flag is ignored and decisions never carry a record.
  /// Recording never influences the decisions themselves.
  void set_record_provenance(bool on) noexcept { record_provenance_ = on; }
  bool record_provenance() const noexcept {
#if NFVM_OBS
    return record_provenance_;
#else
    return false;
#endif
  }

  const topo::Topology& topology() const noexcept { return *topo_; }
  const nfv::ResourceState& resources() const noexcept { return state_; }
  std::size_t num_admitted() const noexcept { return num_admitted_; }
  std::size_t num_rejected() const noexcept { return num_rejected_; }
  std::size_t num_processed() const noexcept { return num_admitted_ + num_rejected_; }

 protected:
  /// Decide without mutating resource state; `process` handles allocation.
  virtual AdmissionDecision try_admit(const nfv::Request& request) = 0;

  /// Called by process() right after an admitted footprint was allocated,
  /// and by release() right after a footprint was returned. Default: no-op.
  /// Algorithms maintaining incremental state derived from the residuals
  /// (e.g. OnlineCp's weighted graph) patch it here.
  virtual void after_allocate(const nfv::Footprint& footprint);
  virtual void after_release(const nfv::Footprint& footprint);

  /// Called by restore_resources() after the residual vectors were
  /// installed. Algorithms maintaining residual-derived state rebuild it
  /// from scratch here (incremental patching has nothing to patch from -
  /// the residuals just changed wholesale). Default: no-op.
  virtual void after_restore();

  /// The record the current process() call is populating, or null when
  /// recording is off. try_admit implementations fill scan provenance
  /// through this; under -DNFVM_OBS=0 it is a compile-time null so guarded
  /// population code folds away entirely.
#if NFVM_OBS
  RequestRecord* active_record() noexcept { return active_record_; }
#else
  static constexpr RequestRecord* active_record() noexcept { return nullptr; }
#endif

  const topo::Topology* topo_;
  nfv::ResourceState state_;

 private:
  std::size_t num_admitted_ = 0;
  std::size_t num_rejected_ = 0;
  bool record_provenance_ = false;
#if NFVM_OBS
  RequestRecord* active_record_ = nullptr;
  /// Cached graph.spcache.{hits,misses} counters for tree-table attribution.
  obs::Counter* spcache_hits_counter_ = nullptr;
  obs::Counter* spcache_misses_counter_ = nullptr;
#endif
};

}  // namespace nfvm::core
