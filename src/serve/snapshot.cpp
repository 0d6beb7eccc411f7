#include "serve/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"
#include "obs/metrics.h"

namespace nfvm::serve {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void io_fail(const std::string& path, const char* what) {
  throw std::runtime_error("snapshot " + path + ": " + what + ": " +
                           std::strerror(errno));
}

/// Writes `text` to `fd` in full, retrying short writes.
void write_all(int fd, const std::string& path, std::string_view text) {
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_fail(path, "write");
    }
    done += static_cast<std::size_t>(n);
  }
}

std::uint64_t load_u64(const obs::JsonValue& doc, const std::string& key) {
  return obs::json_uint(doc.at(key), "field \"" + key + "\"");
}

/// An edge or vertex id of a footprint; the daemon checks it against the
/// topology on restore.
std::uint32_t load_id(const obs::JsonValue& v, const char* what) {
  return static_cast<std::uint32_t>(
      obs::json_uint(v, what, std::numeric_limits<std::uint32_t>::max()));
}

/// A footprint amount (Mbps or MHz): a finite, non-negative number.
double load_amount(const obs::JsonValue& v, const char* what) {
  if (!v.is_number() || !std::isfinite(v.number) || v.number < 0.0) {
    throw std::runtime_error(std::string(what) +
                             " must be a finite, non-negative number");
  }
  return v.number;
}

}  // namespace

std::string to_json(const Snapshot& snapshot) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.begin_object();
  w.key("schema").value(kSnapshotSchema);
  w.key("seq").value(snapshot.seq);
  w.key("algorithm").value(snapshot.algorithm);
  w.key("config").begin_object();
  for (const auto& [key, value] : snapshot.config) w.key(key).value(value);
  w.end_object();
  w.key("lines_consumed").value(snapshot.lines_consumed);
  w.key("bytes_consumed").value(snapshot.bytes_consumed);
  w.key("replies_emitted").value(snapshot.replies_emitted);
  w.key("num_admitted").value(snapshot.num_admitted);
  w.key("num_rejected").value(snapshot.num_rejected);
  // json_number round-trips every double, so these numbers restore the
  // residual state bit-for-bit.
  w.key("residuals").begin_object();
  w.key("bandwidth").begin_array();
  for (double r : snapshot.residuals.bandwidth) w.value(r);
  w.end_array();
  w.key("compute").begin_array();
  for (double r : snapshot.residuals.compute) w.value(r);
  w.end_array();
  w.key("table").begin_array();
  for (double r : snapshot.residuals.table) w.value(r);
  w.end_array();
  w.end_object();
  w.key("counters").begin_object();
  w.key("lines").value(snapshot.counters.lines);
  w.key("admitted").value(snapshot.counters.admitted);
  w.key("rejected").value(snapshot.counters.rejected);
  w.key("overload_rejects").value(snapshot.counters.overload_rejects);
  w.key("departed").value(snapshot.counters.departed);
  w.key("parse_errors").value(snapshot.counters.parse_errors);
  w.key("invalid_requests").value(snapshot.counters.invalid_requests);
  w.key("snapshots_written").value(snapshot.counters.snapshots_written);
  w.end_object();
  w.key("active").begin_array();
  for (const ActiveEntry& entry : snapshot.active) {
    w.begin_object();
    w.key("id").value(entry.id);
    w.key("bandwidth").begin_array();
    for (const auto& [e, mbps] : entry.footprint.bandwidth) {
      w.begin_array();
      w.value(static_cast<std::uint64_t>(e)).value(mbps);
      w.end_array();
    }
    w.end_array();
    w.key("compute").begin_array();
    for (const auto& [v, mhz] : entry.footprint.compute) {
      w.begin_array();
      w.value(static_cast<std::uint64_t>(v)).value(mhz);
      w.end_array();
    }
    w.end_array();
    w.key("table").begin_array();
    for (graph::VertexId v : entry.footprint.table_entries) {
      w.value(static_cast<std::uint64_t>(v));
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("rejected_pending").begin_array();
  for (std::uint64_t id : snapshot.rejected_pending) w.value(id);
  w.end_array();
  w.end_object();
  out << "\n";
  return out.str();
}

void write_snapshot(const std::string& path, const Snapshot& snapshot) {
  const std::string text = to_json(snapshot);
  const fs::path target(path);
  const fs::path dir = target.parent_path().empty() ? fs::path(".")
                                                    : target.parent_path();
  const std::string tmp =
      (dir / (target.filename().string() + ".tmp." +
              std::to_string(static_cast<long>(::getpid()))))
          .string();
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) io_fail(tmp, "open");
  try {
    write_all(fd, tmp, text);
    if (::fsync(fd) != 0) io_fail(tmp, "fsync");
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    io_fail(tmp, "close");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    io_fail(path, "rename");
  }
  // Make the rename itself durable: fsync the containing directory.
  const int dir_fd = ::open(dir.string().c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  NFVM_COUNTER_INC("serve.snapshots_written");
}

Snapshot load_snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("snapshot " + path + ": cannot open");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  obs::JsonValue doc;
  try {
    doc = obs::parse_json(text);
  } catch (const std::exception& e) {
    // A truncated or partially-written file parses up to the cut and then
    // fails with the byte offset - surface it with the path attached.
    throw std::runtime_error("snapshot " + path + ": " + e.what());
  }
  try {
    if (!doc.is_object()) throw std::runtime_error("not a JSON object");
    if (!doc.has("schema") || doc.at("schema").string != kSnapshotSchema) {
      throw std::runtime_error("not an \"" + std::string(kSnapshotSchema) +
                               "\" document");
    }
    Snapshot snapshot;
    snapshot.seq = load_u64(doc, "seq");
    snapshot.algorithm = doc.at("algorithm").string;
    for (const auto& [key, value] : doc.at("config").object) {
      if (!value.is_string()) {
        throw std::runtime_error("config values must be strings");
      }
      snapshot.config[key] = value.string;
    }
    snapshot.lines_consumed = load_u64(doc, "lines_consumed");
    snapshot.bytes_consumed = load_u64(doc, "bytes_consumed");
    snapshot.replies_emitted = load_u64(doc, "replies_emitted");
    snapshot.num_admitted = load_u64(doc, "num_admitted");
    snapshot.num_rejected = load_u64(doc, "num_rejected");
    const obs::JsonValue& residuals = doc.at("residuals");
    const auto load_doubles = [&residuals](const std::string& key) {
      std::vector<double> values;
      for (const obs::JsonValue& v : residuals.at(key).array) {
        if (!v.is_number()) {
          throw std::runtime_error("residuals." + key + " must hold numbers");
        }
        values.push_back(v.number);
      }
      return values;
    };
    snapshot.residuals.bandwidth = load_doubles("bandwidth");
    snapshot.residuals.compute = load_doubles("compute");
    snapshot.residuals.table = load_doubles("table");
    const obs::JsonValue& counters = doc.at("counters");
    snapshot.counters.lines = load_u64(counters, "lines");
    snapshot.counters.admitted = load_u64(counters, "admitted");
    snapshot.counters.rejected = load_u64(counters, "rejected");
    snapshot.counters.overload_rejects = load_u64(counters, "overload_rejects");
    snapshot.counters.departed = load_u64(counters, "departed");
    snapshot.counters.parse_errors = load_u64(counters, "parse_errors");
    snapshot.counters.invalid_requests = load_u64(counters, "invalid_requests");
    snapshot.counters.snapshots_written = load_u64(counters, "snapshots_written");
    for (const obs::JsonValue& entry : doc.at("active").array) {
      ActiveEntry active;
      active.id = load_u64(entry, "id");
      for (const obs::JsonValue& pair : entry.at("bandwidth").array) {
        if (!pair.is_array() || pair.array.size() != 2) {
          throw std::runtime_error("bandwidth entries must be [edge, mbps] pairs");
        }
        active.footprint.bandwidth.emplace_back(
            load_id(pair.array[0], "bandwidth edge id"),
            load_amount(pair.array[1], "bandwidth amount"));
      }
      for (const obs::JsonValue& pair : entry.at("compute").array) {
        if (!pair.is_array() || pair.array.size() != 2) {
          throw std::runtime_error("compute entries must be [server, mhz] pairs");
        }
        active.footprint.compute.emplace_back(
            load_id(pair.array[0], "compute server id"),
            load_amount(pair.array[1], "compute amount"));
      }
      for (const obs::JsonValue& v : entry.at("table").array) {
        active.footprint.table_entries.push_back(load_id(v, "table switch id"));
      }
      snapshot.active.push_back(std::move(active));
    }
    for (const obs::JsonValue& id : doc.at("rejected_pending").array) {
      snapshot.rejected_pending.push_back(obs::json_uint(id, "rejected_pending id"));
    }
    return snapshot;
  } catch (const std::exception& e) {
    throw std::runtime_error("snapshot " + path + ": " + e.what());
  }
}

void restore_into(core::OnlineAlgorithm& algorithm, const Snapshot& snapshot) {
  // Each active footprint departs later through ResourceState::release, so
  // the ledger must be able to take them all back: release them into a
  // scratch ledger restored from the snapshot's residuals, under the same
  // rule and slack, before anything changes.
  nfv::ResourceState ledger(algorithm.topology());
  try {
    ledger.restore_residuals(snapshot.residuals);
  } catch (const std::exception& e) {
    throw std::runtime_error(
        std::string("snapshot restore: residuals do not fit the topology "
                    "(wrong network?): ") +
        e.what());
  }
  for (const ActiveEntry& entry : snapshot.active) {
    try {
      ledger.release(entry.footprint);
    } catch (const std::exception& e) {
      throw std::runtime_error("snapshot restore: active request " +
                               std::to_string(entry.id) +
                               " holds more than the ledger can take back: " +
                               e.what());
    }
  }
  algorithm.restore_resources(snapshot.residuals);
  algorithm.restore_counts(snapshot.num_admitted, snapshot.num_rejected);
  NFVM_COUNTER_INC("serve.restores");
}

}  // namespace nfvm::serve
