#include "obs/event_log.h"

#include <iostream>

#include "obs/json.h"

namespace nfvm::obs {

void JsonLine::key(std::string_view name) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"";
  body_ += json_escape(name);
  body_ += "\":";
}

JsonLine& JsonLine::field(std::string_view k, std::string_view value) {
  key(k);
  body_ += "\"";
  body_ += json_escape(value);
  body_ += "\"";
  return *this;
}

JsonLine& JsonLine::field(std::string_view k, double value) {
  key(k);
  body_ += json_number(value);
  return *this;
}

JsonLine& JsonLine::field_uint(std::string_view k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonLine& JsonLine::field_int(std::string_view k, std::int64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonLine& JsonLine::field(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

bool EventLog::open(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (path == "-") {
    sink_ = &std::cout;
    return true;
  }
  out_.open(path, std::ios::out | std::ios::trunc);
  if (!out_.is_open()) return false;
  sink_ = &out_;
  return true;
}

void EventLog::write(const JsonLine& line) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (sink_ == nullptr) return;
  if (stamp_.empty() || line.body().empty()) {
    *sink_ << "{" << stamp_ << line.body() << "}\n";
  } else {
    *sink_ << "{" << stamp_ << "," << line.body() << "}\n";
  }
  ++lines_;
}

void EventLog::set_stamp(const JsonLine& stamp) {
  const std::lock_guard<std::mutex> lock(mu_);
  stamp_ = stamp.body();
}

}  // namespace nfvm::obs
