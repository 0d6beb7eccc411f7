// Structured run artifacts: a JSONL (one JSON object per line) event log.
//
// The simulator emits one event per processed request; consumers (the BENCH
// trajectory, ad-hoc jq pipelines) get a stable machine-readable record of
// every admission decision without parsing the human-oriented table.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>

namespace nfvm::obs {

/// Builds one flat JSON object incrementally. Field order is insertion
/// order; keys are escaped; doubles are emitted as valid JSON numbers.
class JsonLine {
 public:
  JsonLine& field(std::string_view key, std::string_view value);
  JsonLine& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  JsonLine& field(std::string_view key, double value);
  JsonLine& field(std::string_view key, bool value);
  /// Any integer type (std::size_t, int, ...) without overload ambiguity
  /// against the double overload.
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonLine& field(std::string_view key, T value) {
    if constexpr (std::is_signed_v<T>) {
      return field_int(key, static_cast<std::int64_t>(value));
    } else {
      return field_uint(key, static_cast<std::uint64_t>(value));
    }
  }

  /// The finished object, e.g. {"event":"request","admitted":true}.
  std::string str() const { return "{" + body_ + "}"; }

  /// The fields without the surrounding braces - used by EventLog to splice
  /// the per-run stamp in front of each line's own fields.
  const std::string& body() const { return body_; }

 private:
  JsonLine& field_uint(std::string_view key, std::uint64_t value);
  JsonLine& field_int(std::string_view key, std::int64_t value);
  void key(std::string_view name);
  std::string body_;
};

/// Append-oriented JSONL sink. Thread-safe writes; a default-constructed
/// (or failed-to-open) log swallows writes, so call sites need no null checks
/// beyond the pointer itself.
class EventLog {
 public:
  EventLog() = default;

  /// Opens (truncates) `path`; the path "-" streams to stdout instead.
  /// Returns false and stays closed on failure.
  bool open(const std::string& path);
  bool is_open() const { return sink_ != nullptr; }

  /// Writes `line` plus a newline. No-op when the log is not open.
  void write(const JsonLine& line);
  std::size_t lines_written() const { return lines_; }

  /// Run-identification fields (schema tag, config hash, seed) prepended to
  /// every subsequently written line, so each JSONL line is self-describing
  /// even when cut out of its bundle. Call before the first write.
  void set_stamp(const JsonLine& stamp);

 private:
  std::mutex mu_;
  std::ofstream out_;
  std::ostream* sink_ = nullptr;  // &out_, or std::cout for "-"
  std::size_t lines_ = 0;
  std::string stamp_;  // pre-serialized fields, no braces; may be empty
};

}  // namespace nfvm::obs
