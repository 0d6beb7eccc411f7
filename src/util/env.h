// Environment-variable knobs for the benchmark harness.
//
// Every bench binary runs with sensible defaults but can be scaled up or down
// without recompiling:
//   NFVM_BENCH_REQUESTS  - requests averaged per data point (offline benches)
//   NFVM_BENCH_SCALE     - global multiplier applied to workload sizes
#pragma once

#include <cstdint>
#include <string>

namespace nfvm::util {

/// Reads an integer environment variable; returns `fallback` when the
/// variable is unset or unparsable.
std::int64_t env_int(const std::string& name, std::int64_t fallback);

}  // namespace nfvm::util
