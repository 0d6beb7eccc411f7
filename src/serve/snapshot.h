// Crash-safe state snapshots for the admission daemon: "nfvm-snapshot-v1".
//
// A snapshot captures everything needed to rebuild an engine whose
// subsequent decision stream is byte-identical to an uninterrupted run:
//   * the run configuration echo (topology kind/size/seed, algorithm) -
//     validated on restore so a snapshot can never be replayed against a
//     different network;
//   * the input-stream cursor (lines/bytes consumed, replies emitted) - the
//     restored daemon skips exactly the consumed prefix of the trace;
//   * the residual resource vectors, bit-for-bit (obs::json_number prints
//     every double so it round-trips exactly) - residuals are accumulated
//     floating-point sums, so replaying footprints would reassociate them
//     and drift by an ulp; residual-derived state (core::OnlineCp's
//     weighted graph) is rebuilt from them because its weights are a pure
//     function of the residuals;
//   * the active-request table (id -> footprint), needed to serve future
//     departs, and the ids of rejected arrivals whose departs are still
//     pending;
//   * the daemon's lifetime counters, so stats/drain replies stay identical
//     across a crash/restore boundary.
//
// Durability: write_snapshot writes to a same-directory temp file, fsyncs
// it, renames it over the target, and fsyncs the directory. A kill -9 at
// any instant therefore leaves either the previous or the new snapshot,
// never a torn one.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/online.h"
#include "nfv/resources.h"

namespace nfvm::serve {

inline constexpr std::string_view kSnapshotSchema = "nfvm-snapshot-v1";

/// One admitted, not-yet-departed request.
struct ActiveEntry {
  std::uint64_t id = 0;
  nfv::Footprint footprint;
};

/// Daemon lifetime counters (also the shape of the stats reply). Plain
/// struct, not obs counters: they must survive NFVM_OBS=0 builds and ride in
/// snapshots.
struct ServeCounters {
  std::uint64_t lines = 0;             ///< command lines processed
  std::uint64_t admitted = 0;          ///< arrive -> admitted
  std::uint64_t rejected = 0;          ///< arrive -> rejected (evaluated)
  std::uint64_t overload_rejects = 0;  ///< arrive -> shed unevaluated
  std::uint64_t departed = 0;          ///< depart -> released
  std::uint64_t parse_errors = 0;      ///< malformed JSON lines
  std::uint64_t invalid_requests = 0;  ///< well-formed but semantically bad
  std::uint64_t snapshots_written = 0;
};

struct Snapshot {
  /// Monotonic sequence number (increments per snapshot written).
  std::uint64_t seq = 0;
  std::string algorithm;
  /// Flat configuration echo (topology, nodes, seed, ...); compared
  /// verbatim on restore.
  std::map<std::string, std::string> config;
  /// Input-stream cursor at the moment of the snapshot.
  std::uint64_t lines_consumed = 0;
  std::uint64_t bytes_consumed = 0;
  std::uint64_t replies_emitted = 0;
  /// Algorithm lifetime decision counters (OnlineAlgorithm::num_admitted /
  /// num_rejected), restored via restore_counts.
  std::uint64_t num_admitted = 0;
  std::uint64_t num_rejected = 0;
  /// The engine's residual resource vectors, carried verbatim so the
  /// restored residuals are bit-identical to the crashed run's.
  nfv::ResourceResiduals residuals;
  ServeCounters counters;
  std::vector<ActiveEntry> active;
  /// Rejected arrival ids whose departs have not been seen yet - a depart
  /// for one of these answers released:false instead of an unknown-id error,
  /// and that classification must survive a restore.
  std::vector<std::uint64_t> rejected_pending;
};

/// Serializes the snapshot as one "nfvm-snapshot-v1" JSON document.
std::string to_json(const Snapshot& snapshot);

/// Atomically replaces `path` with the serialized snapshot
/// (same-directory temp file + fsync + rename + directory fsync). Throws
/// std::runtime_error on any I/O failure, leaving the previous snapshot -
/// if any - untouched.
void write_snapshot(const std::string& path, const Snapshot& snapshot);

/// Loads and validates a snapshot file. Throws std::runtime_error with the
/// file path and byte offset on malformed, truncated, or schema-invalid
/// input - a partially-written file (which write_snapshot can never itself
/// produce) must fail loudly, not crash or restore garbage.
Snapshot load_snapshot(const std::string& path);

/// Reinstates snapshot state into a freshly constructed algorithm: installs
/// the residual vectors bit-for-bit (rebuilding residual-derived state) and
/// restores the lifetime counters. The algorithm must be newly built on the
/// same topology the snapshot was taken from. Throws std::runtime_error,
/// before changing anything, on a residual shape/range mismatch (topology
/// mismatch that the config echo comparison could not catch) or when the
/// restored ledger could not release every active footprint (amounts past
/// the capacities).
void restore_into(core::OnlineAlgorithm& algorithm, const Snapshot& snapshot);

}  // namespace nfvm::serve
