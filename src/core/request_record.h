// Per-request decision provenance: what the admission path looked at, how
// long each phase took, and why the request ended up admitted or rejected.
//
// A RequestRecord is attached to AdmissionDecision (shared_ptr, null unless
// OnlineAlgorithm::set_record_provenance(true) was called) and flows out
// through the simulator's JSONL event log, where `nfvm-report latency`
// aggregates the phase timings and `nfvm-report explain` prints one
// request's record verbatim. Population sites compile out under
// -DNFVM_OBS=0; the struct itself stays available so plumbing code builds
// either way.
//
// Phase names (the contract shared with sim/simulator.cpp's event fields
// and obs/request_events.cpp's aggregation):
//   classify   server classification / weighted working-graph build
//   closure    shared-closure shortest-path tree family (tree store update)
//   eval       candidate-server / combination evaluation scan
//   realize    sequential replay: route assembly, delay + capacity checks
//   view_patch Online_CP's weighted-graph patch after an admission
// Phases that a path does not run stay 0; phases need not sum to total_us
// (validation and resource allocation sit between them).
#pragma once

#include <cstdint>

namespace nfvm::core {

struct RequestRecord {
  std::uint64_t request_id = 0;
  bool admitted = false;
  /// Decided on the incremental shared-closure fast path (vs. the
  /// rebuild-from-scratch path).
  bool fast_path = false;

  // --- Phase wall-clock, microseconds ---------------------------------------
  double classify_us = 0.0;
  double closure_us = 0.0;
  double eval_us = 0.0;
  double realize_us = 0.0;
  double view_patch_us = 0.0;
  /// The whole process() call (try_admit + allocation + view patch).
  double total_us = 0.0;

  // --- Candidate-scan provenance --------------------------------------------
  /// Servers in the topology (the scan's universe).
  std::uint64_t servers_total = 0;
  /// Survived the pre-evaluation gates (residual compute, sigma_v).
  std::uint64_t servers_eligible = 0;
  /// Tree/path evaluations actually performed.
  std::uint64_t servers_evaluated = 0;
  /// Passed every feasibility check (each one improved on the best so far).
  std::uint64_t candidates_feasible = 0;
  /// The admitted candidate's server; -1 when rejected.
  std::int64_t chosen_server = -1;

  // --- Pseudo-tree cost breakdown (admitted only) ---------------------------
  /// cost_total = cost_steiner + cost_server + cost_backhaul for Online_CP;
  /// SP variants price trees by link traversals and only fill cost_total.
  double cost_total = 0.0;
  double cost_steiner = 0.0;
  double cost_server = 0.0;
  double cost_backhaul = 0.0;

  // --- SP-tree table attribution --------------------------------------------
  /// Global graph.spcache.{hits,misses} counter deltas across this decision:
  /// lookups in the shortest-path tree tables (SP_static's per-switch
  /// table; the online fast path keeps its trees in a repair store and
  /// reads 0). Observational only.
  std::uint64_t spcache_hits = 0;
  std::uint64_t spcache_misses = 0;

  // --- Reject context: candidates stopped per gate --------------------------
  std::uint64_t skipped_compute = 0;      ///< residual-compute pre-gate
  std::uint64_t skipped_sigma_v = 0;      ///< sigma_v threshold pre-gate
  std::uint64_t failed_disconnected = 0;  ///< terminals disconnected at b_k
  std::uint64_t failed_sigma_e = 0;       ///< tree weight >= sigma_e
  std::uint64_t failed_delay = 0;         ///< delay bound violated
  std::uint64_t failed_capacity = 0;      ///< footprint no longer fits
  std::uint64_t cost_pruned = 0;          ///< dominated by a cheaper candidate
};

}  // namespace nfvm::core
