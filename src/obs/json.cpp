#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace nfvm::obs {

std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  // %.17g round-trips every double; trim to something shorter when exact.
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  double parsed = 0.0;
  std::sscanf(buf, "%lf", &parsed);
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[40];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
    std::sscanf(shorter, "%lf", &parsed);
    if (parsed == value) return shorter;
  }
  return buf;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  raw("{");
  stack_.push_back(Context::kObject);
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != Context::kObject || pending_key_) {
    throw std::logic_error("JsonWriter: end_object outside an object");
  }
  stack_.pop_back();
  first_.pop_back();
  raw("}");
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  raw("[");
  stack_.push_back(Context::kArray);
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != Context::kArray) {
    throw std::logic_error("JsonWriter: end_array outside an array");
  }
  stack_.pop_back();
  first_.pop_back();
  raw("]");
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (stack_.empty() || stack_.back() != Context::kObject || pending_key_) {
    throw std::logic_error("JsonWriter: key outside an object");
  }
  if (!first_.back()) raw(",");
  first_.back() = false;
  raw("\"");
  raw(json_escape(name));
  raw("\":");
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  before_value();
  raw("\"");
  raw(json_escape(text));
  raw("\"");
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  before_value();
  raw(json_number(number));
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  before_value();
  raw(std::to_string(number));
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  before_value();
  raw(std::to_string(number));
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  before_value();
  raw(flag ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::raw_value(std::string_view json) {
  before_value();
  raw(json);
  return *this;
}

void JsonWriter::before_value() {
  if (!stack_.empty() && stack_.back() == Context::kObject) {
    if (!pending_key_) {
      throw std::logic_error("JsonWriter: object member needs a key first");
    }
    pending_key_ = false;
    return;
  }
  if (!stack_.empty() && stack_.back() == Context::kArray) {
    if (!first_.back()) raw(",");
    first_.back() = false;
  }
}

void JsonWriter::raw(std::string_view text) { out_ << text; }

// --- Parser -----------------------------------------------------------------

const JsonValue& JsonValue::at(const std::string& key) const {
  if (!has(key)) throw std::runtime_error("missing key: " + key);
  return object.at(key);
}

std::uint64_t json_uint(const JsonValue& v, std::string_view what, std::uint64_t max) {
  // Every double of 2^64 or more is out of the cast's range: test it first.
  if (v.is_number() && v.number >= 0 && v.number < 0x1p64 &&
      v.number == std::floor(v.number)) {
    const auto value = static_cast<std::uint64_t>(v.number);
    if (value <= max) return value;
  }
  throw std::runtime_error(std::string(what) + " must be an integer in [0, " +
                           std::to_string(max) + "]");
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text, std::uint64_t base_offset = 0)
      : text_(text), base_offset_(base_offset) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON error at byte " +
                             std::to_string(base_offset_ + pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "', got '" + peek() + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.compare(pos_, literal.size(), literal) != 0) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      // Containers recurse; the cap keeps hostile input from exhausting
      // the stack.
      if (++depth_ > kMaxJsonDepth) {
        fail("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
      }
      JsonValue v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') {
      JsonValue v;
      v.type = JsonValue::Type::kString;
      v.string = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      JsonValue v;
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      JsonValue v;
      v.type = JsonValue::Type::kBool;
      return v;
    }
    if (consume_literal("null")) return JsonValue{};
    return parse_number();
  }

  JsonValue parse_object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      if (v.object.count(key) > 0) fail("duplicate key: " + key);
      v.object.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
      else fail("bad \\u escape digit");
    }
    return code;
  }

  void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control char in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (!consume_literal("\\u")) fail("unpaired high surrogate");
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("bad low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired low surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    try {
      std::size_t consumed = 0;
      v.number = std::stod(std::string(text_.substr(start, pos_ - start)), &consumed);
      if (consumed != pos_ - start) fail("malformed number");
    } catch (const std::exception&) {
      fail("malformed number");
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::uint64_t base_offset_ = 0;
  std::size_t depth_ = 0;  // open containers
};

}  // namespace

JsonValue parse_json(std::string_view text) { return JsonParser(text).parse(); }

JsonValue parse_json(std::string_view text, std::uint64_t base_offset) {
  return JsonParser(text, base_offset).parse();
}

bool JsonlCursor::next(Record& record) {
  while (pos_ < text_.size()) {
    const std::uint64_t start = pos_;
    const std::size_t nl = text_.find('\n', pos_);
    std::string_view line;
    bool unterminated = false;
    if (nl == std::string_view::npos) {
      line = text_.substr(pos_);
      pos_ = text_.size();
      unterminated = true;
    } else {
      line = text_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
    }
    ++lineno_;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    record.line = line;
    record.offset = start;
    record.number = lineno_;
    record.unterminated = unterminated;
    return true;
  }
  return false;
}

JsonValue parse_jsonl_record(const JsonlCursor::Record& record) {
  JsonValue doc;
  try {
    doc = parse_json(record.line, record.offset);
  } catch (const std::exception& e) {
    if (record.unterminated) {
      // No trailing newline and unparseable: the classic partially-written
      // tail of a crashed writer. Name it as such - consumers routinely
      // choose to tolerate exactly this case and nothing else.
      throw std::runtime_error(
          "truncated JSONL record at line " + std::to_string(record.number) +
          " (byte " + std::to_string(record.offset) + "): " + e.what());
    }
    throw std::runtime_error("line " + std::to_string(record.number) + ": " +
                             e.what());
  }
  if (!doc.is_object()) {
    throw std::runtime_error("line " + std::to_string(record.number) +
                             " (byte " + std::to_string(record.offset) +
                             "): not a JSON object");
  }
  return doc;
}

}  // namespace nfvm::obs
