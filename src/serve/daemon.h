// The nfvm-serve admission daemon: a long-lived loop around
// core::OnlineAlgorithm that speaks the serve/protocol.h JSONL protocol.
//
// Architecture: one loop, no reader thread. It takes the next line from a
// bounded inflight queue (capacity --max-inflight), moves every line the
// LineSource can deliver without blocking into the queue (each stamped as it
// enters, which starts its queue wait), then applies any scheduled faults to
// the taken line, parses, dispatches, and writes exactly one reply line - in
// one write, flushed immediately, so a kill -9 can never lose output the
// client already saw. Only an empty queue makes the loop block in the
// source. A full queue leaves lines unread in the pipe or socket, which is
// natural backpressure on the client; a line that arrives while another is
// being handled enters the queue when that handling ends.
//
// Robustness contract:
//   * every input line gets exactly one reply, malformed ones a structured
//     {"ok":false,...} with the line number and byte offset;
//   * arrive lines that waited in the queue longer than --request-deadline-ms
//     are shed unevaluated (reject_cause "overload") - the engine's time
//     goes to requests that still have a caller;
//   * a stop flag (wired to SIGTERM/SIGINT by the CLI) drains gracefully:
//     the in-flight line finishes, queued lines are dropped unanswered, a
//     final snapshot and summary are written, run() returns;
//   * all engine interaction is wrapped so hostile input can never throw out
//     of the loop.
//
// Crash recovery: snapshots (serve/snapshot.h) record the input cursor, the
// active-request table, and the counters. restore() replays that state into
// a fresh engine and arranges for run() to skip the consumed prefix of the
// trace, making `head -n lines_consumed pre-crash + post-restore` byte-equal
// to an uninterrupted run (CI gate: tools/serve_crash_smoke.sh).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <string>

#include "core/online.h"
#include "obs/hdr_histogram.h"
#include "serve/fault_plan.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"

namespace nfvm::serve {

/// What LineSource::next found.
enum class ReadStatus : std::uint8_t {
  kLine,     ///< `line` holds the next line
  kPending,  ///< no whole line can be read without blocking (wait = false)
  kEnd,      ///< end of input, a read error, or a stop request
};

/// Pull-based source of input lines (newline already stripped).
class LineSource {
 public:
  virtual ~LineSource() = default;
  /// Takes the next line into `line`. With `wait`, blocks until a line
  /// arrives or input ends; without, returns kPending at once when no whole
  /// line can be read without blocking.
  virtual ReadStatus next(std::string& line, bool wait) = 0;
};

/// Lines from a file descriptor (stdin, an accepted Unix-socket connection)
/// via poll(2), so a pending stop flag is honoured within ~200 ms even when
/// the peer goes silent, and EINTR from signal delivery is harmless. A read
/// without `wait` polls with a zero timeout.
class FdLineSource final : public LineSource {
 public:
  /// `stop` may be null; when set and true, next() returns kEnd at the
  /// next poll wakeup. Does not take ownership of `fd`.
  FdLineSource(int fd, const std::atomic<bool>* stop) : fd_(fd), stop_(stop) {}
  ReadStatus next(std::string& line, bool wait) override;

 private:
  int fd_;
  const std::atomic<bool>* stop_;
  std::string buffer_;
  bool eof_ = false;
};

struct DaemonOptions {
  /// Bounded inflight queue capacity: a full queue stops the loop reading
  /// more input until a line is taken.
  std::size_t max_inflight = 1024;
  /// Shed arrive commands older than this (queue wait) unevaluated;
  /// 0 disables. Keep 0 for runs that must be byte-reproducible.
  double request_deadline_ms = 0.0;
  /// Snapshot target; empty disables snapshots (a {"cmd":"snapshot"} line
  /// then gets a structured error).
  std::string snapshot_path;
  /// Also snapshot automatically every N processed lines; 0 disables.
  std::size_t snapshot_every = 0;
  FaultPlan fault_plan;
  /// Graceful-drain flag, typically flipped by a signal handler.
  const std::atomic<bool>* stop = nullptr;
};

/// End-of-run summary (the CLI prints it to stderr as JSON - stdout carries
/// only per-line replies, which is what keeps the crash gate a plain diff).
struct DaemonStats {
  ServeCounters counters;
  std::uint64_t lines_consumed = 0;
  std::uint64_t replies_emitted = 0;
  std::size_t active = 0;
  /// "eof", "drain", or "signal".
  std::string stop_cause = "eof";
  double wall_seconds = 0.0;
  /// Request handling latency (queue wait + decision), microseconds;
  /// 0 when no request was timed.
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
};

class Daemon {
 public:
  /// `config` is the flat run-configuration echo stamped into snapshots and
  /// compared verbatim on restore. The algorithm and options.stop must
  /// outlive the daemon.
  Daemon(core::OnlineAlgorithm& algorithm,
         std::map<std::string, std::string> config, DaemonOptions options);

  /// Reinstates a loaded snapshot: verifies the config echo and algorithm
  /// name, replays the active footprints into the engine, and arranges for
  /// run() to skip the already-consumed input prefix. Must be called before
  /// run(), at most once. Throws std::runtime_error, before changing any
  /// state, on any mismatch or on a footprint id outside the topology.
  void restore(const Snapshot& snapshot);

  /// Serves `source` until end of input, a drain command, or the stop flag;
  /// replies go to `out`. May be called repeatedly (socket mode runs it once
  /// per accepted connection); engine state, counters, and the input cursor
  /// persist across calls.
  DaemonStats run(LineSource& source, std::ostream& out);

  /// Current state as a snapshot with the given input cursor.
  Snapshot make_snapshot(std::uint64_t lines, std::uint64_t bytes,
                         std::uint64_t replies) const;

 private:
  void process_line(std::string line, double queued_us, std::ostream& out);
  void handle_arrive(const nfv::Request& request, const LinePosition& position,
                     std::ostream& out);
  void handle_depart(std::uint64_t id, const LinePosition& position,
                     std::ostream& out);
  void handle_snapshot(const LinePosition& position, std::ostream& out);
  void emit_stats(std::ostream& out);
  /// Hands `out` the reply and its newline in one write, then flushes.
  void write_reply(std::ostream& out, std::string_view reply);
  bool stopping() const noexcept {
    return options_.stop != nullptr &&
           options_.stop->load(std::memory_order_relaxed);
  }

  core::OnlineAlgorithm* algorithm_;
  std::map<std::string, std::string> config_;
  DaemonOptions options_;

  // Input cursor. Absolute over the whole trace: restore() seeds these from
  // the snapshot and skip_lines_ discards the consumed prefix, so line
  // numbers, byte offsets, and fault-plan triggers stay aligned with the
  // original file across a crash/restore boundary.
  std::uint64_t lines_consumed_ = 0;
  std::uint64_t bytes_consumed_ = 0;
  std::uint64_t replies_emitted_ = 0;
  std::uint64_t skip_lines_ = 0;

  ServeCounters counters_;
  std::map<std::uint64_t, nfv::Footprint> active_;
  std::set<std::uint64_t> rejected_pending_;
  std::uint64_t snapshot_seq_ = 0;
  std::uint64_t last_released_ = 0;  ///< dup_depart fault target
  bool drain_requested_ = false;
  obs::HdrHistogram latency_;
  std::string reply_line_;  ///< write_reply scratch: reply + '\n'
};

}  // namespace nfvm::serve
