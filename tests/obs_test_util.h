// Test helpers for the obs layer: aliases for the obs:: JSON parser (which
// validates the observability exports; its edge-case tests live in
// tests/test_obs_json.cpp) and counter deltas over the process-wide
// registry.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/json.h"
#include "obs/metrics.h"

namespace nfvm::test {

using JsonValue = obs::JsonValue;

inline JsonValue parse_json(const std::string& text) {
  return obs::parse_json(text);
}

/// The process-wide counters as they stood at construction: since(name) is
/// how much a counter grew after it, so a test reads the counts of the code
/// it ran whatever ran before it in the same binary.
class CounterBaseline {
 public:
  CounterBaseline() {
    for (const auto& [name, value] : obs::Registry::global().counter_snapshot()) {
      start_[name] = value;
    }
  }

  std::uint64_t since(const std::string& name) const {
    const auto it = start_.find(name);
    return obs::Registry::global().counter(name)->value() -
           (it == start_.end() ? 0 : it->second);
  }

 private:
  std::map<std::string, std::uint64_t> start_;
};

}  // namespace nfvm::test
