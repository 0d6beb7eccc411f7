#include "serve/fault_plan.h"

#include <chrono>
#include <stdexcept>

#include "obs/json.h"

namespace nfvm::serve {

namespace {

FaultKind kind_from_string(const std::string& name) {
  if (name == "stall_ms") return FaultKind::kStallMs;
  if (name == "garbage") return FaultKind::kGarbage;
  if (name == "dup_depart") return FaultKind::kDupDepart;
  if (name == "unknown_depart") return FaultKind::kUnknownDepart;
  if (name == "kill") return FaultKind::kKill;
  throw std::invalid_argument("fault plan: unknown fault kind \"" + name +
                              "\"");
}

}  // namespace

FaultPlan FaultPlan::parse(std::string_view text) {
  // The longest stall std::this_thread::sleep_for can convert: beyond it the
  // conversion to its clock's ticks is undefined behaviour.
  const double max_stall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::nanoseconds::max())
          .count();
  FaultPlan plan;
  try {
    const obs::JsonValue doc = obs::parse_json(text);
    if (!doc.is_object() || !doc.has("schema") ||
        doc.at("schema").string != kFaultPlanSchema) {
      throw std::invalid_argument("fault plan: not an \"" +
                                  std::string(kFaultPlanSchema) + "\" document");
    }
    if (doc.has("seed")) plan.seed_ = obs::json_uint(doc.at("seed"), "seed");
    if (!doc.has("faults") || !doc.at("faults").is_array()) {
      throw std::invalid_argument("fault plan: \"faults\" must be an array");
    }
    for (const obs::JsonValue& entry : doc.at("faults").array) {
      if (!entry.is_object() || !entry.has("line") || !entry.has("kind")) {
        throw std::invalid_argument(
            "fault plan: each fault needs \"line\" and \"kind\"");
      }
      const std::uint64_t line = obs::json_uint(entry.at("line"), "line");
      if (line == 0) {
        throw std::invalid_argument("fault plan: line numbers are 1-based");
      }
      if (!entry.at("kind").is_string()) {
        throw std::invalid_argument("fault plan: \"kind\" must be a string");
      }
      Fault fault;
      fault.kind = kind_from_string(entry.at("kind").string);
      if (entry.has("value")) {
        const obs::JsonValue& value = entry.at("value");
        if (!value.is_number() || value.number < 0) {
          throw std::invalid_argument(
              "fault plan: \"value\" must be a non-negative number");
        }
        fault.value = value.number;
      }
      if (fault.kind == FaultKind::kStallMs && !(fault.value < max_stall_ms)) {
        throw std::invalid_argument("fault plan: stall_ms value must be below " +
                                    std::to_string(max_stall_ms) + " ms");
      }
      plan.faults_[line].push_back(fault);
      ++plan.total_;
    }
  } catch (const std::runtime_error& e) {
    // Malformed JSON, a missing member or an integer out of range.
    throw std::invalid_argument(std::string("fault plan: ") + e.what());
  }
  return plan;
}

const std::vector<Fault>* FaultPlan::at(std::uint64_t line) const {
  const auto it = faults_.find(line);
  return it == faults_.end() ? nullptr : &it->second;
}

std::string FaultPlan::garbage_line(std::uint64_t line) const {
  // splitmix64 over (seed, line): stable junk that no JSON parser accepts
  // (it always starts with '}') yet differs per line so dedup caches in any
  // layer cannot mask the fault.
  std::uint64_t x = seed_ ^ (line * 0x9e3779b97f4a7c15ULL);
  std::string out = "}";
  for (int i = 0; i < 24; ++i) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    out += static_cast<char>('!' + (z % 94));  // printable ASCII, no newline
  }
  return out;
}

}  // namespace nfvm::serve
