#include "serve/daemon.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <deque>
#include <exception>
#include <iostream>
#include <thread>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace nfvm::serve {

namespace {

/// A depart target no trace generator ever issues (ids are small and
/// sequential) - the unknown_depart fault uses it to hit the unknown-id path.
constexpr std::uint64_t kNeverIssuedId = 0xdeadbeefULL;

void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

}  // namespace

ReadStatus FdLineSource::next(std::string& line, bool wait) {
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      strip_cr(line);
      return ReadStatus::kLine;
    }
    if (eof_) {
      if (buffer_.empty()) return ReadStatus::kEnd;
      line = std::move(buffer_);
      buffer_.clear();
      strip_cr(line);
      return ReadStatus::kLine;
    }
    if (stop_ != nullptr && stop_->load(std::memory_order_relaxed)) {
      return ReadStatus::kEnd;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait ? 200 : 0);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kEnd;
    }
    if (ready == 0) {
      if (!wait) return ReadStatus::kPending;
      continue;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kEnd;
    }
    if (n == 0) {
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

Daemon::Daemon(core::OnlineAlgorithm& algorithm,
               std::map<std::string, std::string> config, DaemonOptions options)
    : algorithm_(&algorithm),
      config_(std::move(config)),
      options_(std::move(options)) {}

void Daemon::restore(const Snapshot& snapshot) {
  if (snapshot.algorithm != algorithm_->name()) {
    throw std::runtime_error("snapshot restore: snapshot was taken with "
                             "algorithm \"" + snapshot.algorithm +
                             "\", daemon runs \"" +
                             std::string(algorithm_->name()) + "\"");
  }
  if (snapshot.config != config_) {
    std::string detail;
    for (const auto& [key, value] : snapshot.config) {
      const auto it = config_.find(key);
      if (it == config_.end() || it->second != value) {
        detail = "\"" + key + "\" was \"" + value + "\", now \"" +
                 (it == config_.end() ? std::string("<unset>") : it->second) +
                 "\"";
        break;
      }
    }
    if (detail.empty()) detail = "current run sets extra keys";
    throw std::runtime_error(
        "snapshot restore: configuration mismatch - the snapshot cannot be "
        "replayed against this run (" + detail + ")");
  }
  // A footprint id outside the topology would make that request's depart
  // throw, or release another link, long after the restore succeeded.
  const topo::Topology& topo = algorithm_->topology();
  for (const ActiveEntry& entry : snapshot.active) {
    const auto check = [&entry](std::uint32_t id, std::size_t count, const char* what) {
      if (id >= count) {
        throw std::runtime_error("snapshot restore: active request " +
                                 std::to_string(entry.id) + " holds " + what + " " +
                                 std::to_string(id) + " of a network with " +
                                 std::to_string(count));
      }
    };
    for (const auto& [e, mbps] : entry.footprint.bandwidth) {
      check(e, topo.num_links(), "link");
    }
    for (const auto& [v, mhz] : entry.footprint.compute) {
      check(v, topo.num_switches(), "switch");
    }
    for (graph::VertexId v : entry.footprint.table_entries) {
      check(v, topo.num_switches(), "switch");
    }
  }
  restore_into(*algorithm_, snapshot);
  for (const ActiveEntry& entry : snapshot.active) {
    active_[entry.id] = entry.footprint;
  }
  rejected_pending_.insert(snapshot.rejected_pending.begin(),
                           snapshot.rejected_pending.end());
  counters_ = snapshot.counters;
  lines_consumed_ = snapshot.lines_consumed;
  bytes_consumed_ = snapshot.bytes_consumed;
  replies_emitted_ = snapshot.replies_emitted;
  skip_lines_ = snapshot.lines_consumed;
  snapshot_seq_ = snapshot.seq;
}

Snapshot Daemon::make_snapshot(std::uint64_t lines, std::uint64_t bytes,
                               std::uint64_t replies) const {
  Snapshot snapshot;
  snapshot.seq = snapshot_seq_ + 1;
  snapshot.algorithm = std::string(algorithm_->name());
  snapshot.config = config_;
  snapshot.lines_consumed = lines;
  snapshot.bytes_consumed = bytes;
  snapshot.replies_emitted = replies;
  snapshot.num_admitted = algorithm_->num_admitted();
  snapshot.num_rejected = algorithm_->num_rejected();
  snapshot.residuals = algorithm_->resources().export_residuals();
  snapshot.counters = counters_;
  snapshot.active.reserve(active_.size());
  for (const auto& [id, footprint] : active_) {
    snapshot.active.push_back(ActiveEntry{id, footprint});
  }
  snapshot.rejected_pending.assign(rejected_pending_.begin(),
                                   rejected_pending_.end());
  return snapshot;
}

DaemonStats Daemon::run(LineSource& source, std::ostream& out) {
  util::Stopwatch wall;
  using Clock = std::chrono::steady_clock;
  struct Item {
    std::string line;
    Clock::time_point enqueued;
  };
  std::deque<Item> queue;
  bool input_done = false;
  std::string line;
  // Queues the source's next line, stamped as it enters; without `wait`,
  // only one it can deliver without blocking. True when a line was queued.
  const auto enqueue = [&](bool wait) {
    const ReadStatus status = source.next(line, wait);
    if (status == ReadStatus::kLine) queue.push_back(Item{std::move(line), Clock::now()});
    if (status == ReadStatus::kEnd) input_done = true;
    return status == ReadStatus::kLine;
  };

  std::string stop_cause = "eof";
  for (;;) {
    if (stopping()) {
      // Graceful drain: queued lines are dropped unanswered; the snapshot
      // cursor only ever covers replied lines, so nothing is lost.
      stop_cause = "signal";
      break;
    }
    if (queue.empty()) {
      if (input_done) break;
      // The source's poll wakes every 200 ms, so a stop flag set by a
      // signal handler is seen while the peer is silent.
      enqueue(/*wait=*/true);
      continue;
    }
    Item item = std::move(queue.front());
    queue.pop_front();
    // Refill before handling: whatever arrived while the last line was
    // handled starts its queue wait now, not after this line.
    while (!input_done && queue.size() < options_.max_inflight) {
      if (!enqueue(/*wait=*/false)) break;
    }
    const double queued_us =
        std::chrono::duration<double, std::micro>(Clock::now() - item.enqueued)
            .count();
    process_line(std::move(item.line), queued_us, out);
    if (drain_requested_) {
      stop_cause = "drain";
      break;
    }
  }

  if (!options_.snapshot_path.empty()) {
    try {
      write_snapshot(options_.snapshot_path,
                     make_snapshot(lines_consumed_, bytes_consumed_,
                                   replies_emitted_));
      ++snapshot_seq_;
      ++counters_.snapshots_written;
    } catch (const std::exception& e) {
      std::cerr << "nfvm-serve: final snapshot failed: " << e.what() << "\n";
    }
  }

  DaemonStats stats;
  stats.counters = counters_;
  stats.lines_consumed = lines_consumed_;
  stats.replies_emitted = replies_emitted_;
  stats.active = active_.size();
  stats.stop_cause = stop_cause;
  stats.wall_seconds = wall.elapsed_seconds();
  if (latency_.count() > 0) {
    stats.p50_us = latency_.quantile(0.50);
    stats.p90_us = latency_.quantile(0.90);
    stats.p99_us = latency_.quantile(0.99);
  }
  return stats;
}

void Daemon::write_reply(std::ostream& out, std::string_view reply) {
  // One write: on an unbuffered socket stream a separate newline is a
  // second write(2), and the first can wake the client on a line with no
  // newline yet. Flush per line: a kill -9 must never take back a reply the
  // client saw, and the crash gate counts on replies_emitted >= any
  // snapshot's cursor.
  reply_line_.assign(reply);
  reply_line_ += '\n';
  out.write(reply_line_.data(), static_cast<std::streamsize>(reply_line_.size()));
  out.flush();
  ++replies_emitted_;
}

void Daemon::process_line(std::string line, double queued_us,
                          std::ostream& out) {
  if (skip_lines_ > 0) {
    // Consumed before the restore point - the cursor already covers it.
    --skip_lines_;
    return;
  }
  const LinePosition position{bytes_consumed_, lines_consumed_ + 1};
  const std::size_t raw_size = line.size();

  if (const std::vector<Fault>* faults =
          options_.fault_plan.at(position.number)) {
    for (const Fault& fault : *faults) {
      switch (fault.kind) {
        case FaultKind::kStallMs:
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              fault.value));
          break;
        case FaultKind::kGarbage:
          line = options_.fault_plan.garbage_line(position.number);
          break;
        case FaultKind::kDupDepart:
          line = depart_line(last_released_);
          break;
        case FaultKind::kUnknownDepart:
          line = depart_line(kNeverIssuedId);
          break;
        case FaultKind::kKill:
          // kill -9 stand-in: no flush, no cleanup, no snapshot.
          ::_exit(137);
      }
    }
  }

  util::Stopwatch watch;
  ParseFailure failure;
  const std::optional<Command> command =
      parse_command(line, position, algorithm_->topology().graph, failure);
  if (!command.has_value()) {
    if (failure.malformed_json) {
      ++counters_.parse_errors;
      NFVM_COUNTER_INC("serve.parse_errors");
    } else {
      ++counters_.invalid_requests;
      NFVM_COUNTER_INC("serve.invalid_requests");
    }
    write_reply(out, failure.reply);
  } else {
    switch (command->kind) {
      case CommandKind::kArrive:
        if (options_.request_deadline_ms > 0.0 &&
            queued_us > options_.request_deadline_ms * 1000.0) {
          rejected_pending_.insert(command->request.id);
          ++counters_.overload_rejects;
          NFVM_COUNTER_INC("serve.overload_rejects");
          write_reply(out, shed_reply(command->request.id));
        } else {
          handle_arrive(command->request, position, out);
        }
        break;
      case CommandKind::kDepart:
        handle_depart(command->request.id, position, out);
        break;
      case CommandKind::kSnapshot:
        handle_snapshot(position, out);
        break;
      case CommandKind::kStats:
        emit_stats(out);
        break;
      case CommandKind::kDrain: {
        obs::JsonLine reply;
        reply.field("ok", true).field("cmd", "drain").field(
            "lines", lines_consumed_ + 1);
        write_reply(out, reply.str());
        drain_requested_ = true;
        break;
      }
    }
  }

  ++lines_consumed_;
  bytes_consumed_ += raw_size + 1;
  ++counters_.lines;
  NFVM_COUNTER_INC("serve.lines");
  const double us = queued_us + watch.elapsed_seconds() * 1e6;
  latency_.observe(us);
  NFVM_HDR_OBSERVE("serve.request_us", us);
  NFVM_GAUGE_SET("serve.active", static_cast<double>(active_.size()));

  if (options_.snapshot_every != 0 && !options_.snapshot_path.empty() &&
      lines_consumed_ % options_.snapshot_every == 0) {
    // The reply for this line is already flushed, so the cursor written here
    // never runs ahead of the visible output - the invariant the crash gate
    // depends on.
    try {
      write_snapshot(options_.snapshot_path,
                     make_snapshot(lines_consumed_, bytes_consumed_,
                                   replies_emitted_));
      ++snapshot_seq_;
      ++counters_.snapshots_written;
    } catch (const std::exception& e) {
      std::cerr << "nfvm-serve: periodic snapshot failed: " << e.what()
                << "\n";
    }
  }
}

void Daemon::handle_arrive(const nfv::Request& request,
                           const LinePosition& position, std::ostream& out) {
  const std::uint64_t id = request.id;
  if (active_.count(id) != 0 || rejected_pending_.count(id) != 0) {
    ++counters_.invalid_requests;
    NFVM_COUNTER_INC("serve.invalid_requests");
    write_reply(out, error_reply("invalid",
                                 "duplicate arrive id " + std::to_string(id),
                                 position));
    return;
  }
  core::AdmissionDecision decision;
  try {
    decision = algorithm_->process(request);
  } catch (const std::exception& e) {
    // parse_command pre-validates, so this is a belt-and-braces guard: the
    // daemon answers and lives on rather than dying on an engine surprise.
    ++counters_.invalid_requests;
    NFVM_COUNTER_INC("serve.invalid_requests");
    write_reply(out, error_reply("invalid", e.what(), position));
    return;
  }
  if (decision.admitted) {
    active_[id] = decision.footprint;
    ++counters_.admitted;
    NFVM_COUNTER_INC("serve.admitted");
  } else {
    rejected_pending_.insert(id);
    ++counters_.rejected;
    NFVM_COUNTER_INC("serve.rejected");
  }
  write_reply(out, arrive_reply(id, decision, active_.size()));
}

void Daemon::handle_depart(std::uint64_t id, const LinePosition& position,
                           std::ostream& out) {
  const auto it = active_.find(id);
  if (it != active_.end()) {
    algorithm_->release(it->second);
    active_.erase(it);
    last_released_ = id;
    ++counters_.departed;
    NFVM_COUNTER_INC("serve.departed");
    write_reply(out, depart_reply(id, /*released=*/true, active_.size()));
    return;
  }
  if (rejected_pending_.erase(id) != 0) {
    // The trace emits a depart for every arrival; for a rejected (or shed)
    // one it is a no-op acknowledgement, not an error.
    write_reply(out, depart_reply(id, /*released=*/false, active_.size()));
    return;
  }
  ++counters_.invalid_requests;
  NFVM_COUNTER_INC("serve.invalid_requests");
  write_reply(out,
              error_reply("invalid",
                          "depart for unknown or already-departed id " +
                              std::to_string(id),
                          position));
}

void Daemon::handle_snapshot(const LinePosition& position, std::ostream& out) {
  if (options_.snapshot_path.empty()) {
    ++counters_.invalid_requests;
    NFVM_COUNTER_INC("serve.invalid_requests");
    write_reply(out, error_reply("invalid",
                                 "snapshot path not configured (--snapshot)",
                                 position));
    return;
  }
  // Cursor excludes this very line: a restore re-executes the snapshot
  // command and re-emits its reply, which keeps the concatenated reply
  // stream intact wherever a kill lands relative to the rename.
  Snapshot snapshot = make_snapshot(position.number - 1, position.offset,
                                    replies_emitted_);
  try {
    write_snapshot(options_.snapshot_path, snapshot);
  } catch (const std::exception& e) {
    write_reply(out, error_reply("internal", e.what(), position));
    return;
  }
  ++snapshot_seq_;
  ++counters_.snapshots_written;
  write_reply(out, snapshot_reply(snapshot.seq, options_.snapshot_path,
                                  active_.size()));
}

void Daemon::emit_stats(std::ostream& out) {
  obs::JsonLine reply;
  reply.field("ok", true)
      .field("cmd", "stats")
      .field("lines", counters_.lines + 1)
      .field("admitted", counters_.admitted)
      .field("rejected", counters_.rejected)
      .field("overload_rejects", counters_.overload_rejects)
      .field("departed", counters_.departed)
      .field("parse_errors", counters_.parse_errors)
      .field("invalid_requests", counters_.invalid_requests)
      .field("snapshots_written", counters_.snapshots_written)
      .field("active", active_.size())
      .field("p50_us", latency_.count() > 0 ? latency_.quantile(0.50) : 0.0)
      .field("p90_us", latency_.count() > 0 ? latency_.quantile(0.90) : 0.0)
      .field("p99_us", latency_.count() > 0 ? latency_.quantile(0.99) : 0.0);
  write_reply(out, reply.str());
}

}  // namespace nfvm::serve
