// Minimal JSON support for the observability artifacts: a streaming writer
// (metrics registry dumps, Chrome trace files, JSONL event logs, bench and
// manifest artifacts) and a small recursive-descent parser (the nfvm-report
// tool and the test suite read those artifacts back). Not a general JSON
// library: the writer is guaranteed to emit valid RFC 8259 output (escaped
// strings, finite numbers, correct comma placement); the parser accepts any
// RFC 8259 document and fails with a byte offset on malformed input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace nfvm::obs {

/// Escapes a string for use inside a JSON string literal (no surrounding
/// quotes). Control characters become \uXXXX; UTF-8 bytes pass through.
std::string json_escape(std::string_view raw);

/// Formats a double as a valid JSON number. NaN and infinities, which JSON
/// cannot represent, are emitted as 0 (observability data; never worth
/// failing a run over).
std::string json_number(double value);

/// Streaming writer with an explicit nesting stack. Usage:
///   JsonWriter w(out);
///   w.begin_object();
///   w.key("counters");
///   w.begin_object();
///   w.key("graph.dijkstra.runs").value(42);
///   w.end_object();
///   w.end_object();
/// Commas and quoting are handled by the writer; the caller only provides
/// structure. Throws std::logic_error on misuse (e.g. value without key
/// inside an object) to fail loudly in tests rather than emit bad JSON.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits the key of the next member; must be inside an object.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(double number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(bool flag);

  /// Splices pre-serialized JSON in value position (comma placement still
  /// handled). The caller guarantees `json` is one complete valid value -
  /// used to embed a Registry::to_json() snapshot into a larger document.
  JsonWriter& raw_value(std::string_view json);

  /// Depth of the open containers (0 once the document is complete).
  std::size_t depth() const noexcept { return stack_.size(); }

 private:
  enum class Context : std::uint8_t { kObject, kArray };

  void before_value();
  void raw(std::string_view text);

  std::ostream& out_;
  std::vector<Context> stack_;
  std::vector<bool> first_;   // parallel to stack_: no member emitted yet
  bool pending_key_ = false;  // a key was emitted, value expected next
};

/// Parsed JSON document node. A plain tagged struct rather than a variant:
/// artifacts are small (metrics dumps, bench tables, manifests), so the
/// fixed per-node overhead is irrelevant and accessors stay trivial.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  bool has(const std::string& key) const {
    return is_object() && object.count(key) > 0;
  }
  /// Member access; throws std::runtime_error when absent (artifact
  /// consumers treat a missing key as a malformed artifact).
  const JsonValue& at(const std::string& key) const;
};

/// `v` as an unsigned integer no larger than `max` (the target id type's
/// range, say). Throws std::runtime_error naming `what` unless `v` is a
/// number with no fraction in [0, max]; the range is checked before the
/// cast, which is undefined behaviour for a double the target cannot hold.
std::uint64_t json_uint(const JsonValue& v, std::string_view what,
                        std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Deepest container nesting parse_json accepts. The parser recurses once
/// per level, so the cap keeps a hostile line from exhausting the stack;
/// the repo's own artifacts nest at most 6 deep.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// Parses one complete JSON document. Throws std::runtime_error with the
/// byte offset on malformed input (trailing bytes, bad escapes, duplicate
/// object keys - our writers never emit those, so a duplicate signals a
/// corrupt artifact - or nesting deeper than kMaxJsonDepth). \uXXXX escapes
/// decode to UTF-8, including surrogate pairs.
JsonValue parse_json(std::string_view text);

/// As parse_json, but error byte offsets are reported relative to
/// `base_offset` + the position inside `text`. Used by JSONL consumers so a
/// malformed record names its absolute position in the enclosing stream,
/// not a line-local one.
JsonValue parse_json(std::string_view text, std::uint64_t base_offset);

/// Record iterator over a JSONL buffer that tracks absolute byte offsets -
/// the shared substrate for every consumer that must survive truncated or
/// partially-written files (a process killed mid-write leaves a final
/// record with no trailing newline and, usually, an unparseable prefix).
/// Blank lines are skipped; the cursor itself never throws.
class JsonlCursor {
 public:
  struct Record {
    /// The record's bytes, newline excluded.
    std::string_view line;
    /// Byte offset of the record's first byte in the buffer.
    std::uint64_t offset = 0;
    /// 1-based line number.
    std::size_t number = 0;
    /// True when the buffer ended without a newline after this record - the
    /// signature of a write cut short. Such a record may still parse (the
    /// kill landed between the payload and the '\n'); callers decide
    /// whether a parseable unterminated tail is acceptable.
    bool unterminated = false;
  };

  explicit JsonlCursor(std::string_view text) : text_(text) {}

  /// Advances to the next non-blank record. Returns false at end of buffer.
  bool next(Record& record);

 private:
  std::string_view text_;
  std::uint64_t pos_ = 0;
  std::size_t lineno_ = 0;
};

/// Parses one cursor record as a JSON object. Throws std::runtime_error
/// naming the line number and the absolute byte offset on malformed input
/// or a non-object record; a record flagged `unterminated` that also fails
/// to parse is reported as a truncated record.
JsonValue parse_jsonl_record(const JsonlCursor::Record& record);

}  // namespace nfvm::obs
