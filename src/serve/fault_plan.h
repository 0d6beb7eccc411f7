// Deterministic fault injection for the serve daemon ("nfvm-fault-plan-v1").
//
// The recovery paths of a robust daemon - parse errors, unknown-id departs,
// overload sheds, kill -9 mid-stream - must be first-class tested code, not
// dead branches that only a production incident ever executes. A FaultPlan
// makes them executable on demand: `nfvm-serve --fault-plan plan.json`
// injects the listed faults at exact input-line numbers, so a fixed plan +
// fixed trace reproduces the same failure sequence every run.
//
// Plan document:
//   {"schema": "nfvm-fault-plan-v1",
//    "seed": 42,
//    "faults": [
//      {"line": 100, "kind": "stall_ms", "value": 50},
//      {"line": 120, "kind": "garbage"},
//      {"line": 130, "kind": "dup_depart"},
//      {"line": 140, "kind": "unknown_depart"},
//      {"line": 200, "kind": "kill"}]}
//
// Kinds (applied when the daemon is about to process input line `line`):
//   stall_ms        sleep `value` ms first - backs up the inflight queue so
//                   deadline-based overload shedding engages
//   garbage         replace the line's bytes with deterministic junk drawn
//                   from `seed` + the line number - exercises the parse-error
//                   reply path
//   dup_depart      replace the line with a depart for the most recently
//                   released id (id 0 when none) - duplicate-depart error path
//   unknown_depart  replace the line with a depart for an id that was never
//                   issued - unknown-id error path
//   kill            _exit(137) without any cleanup, the faithful stand-in
//                   for kill -9 - exercises snapshot atomicity + restore
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace nfvm::serve {

inline constexpr std::string_view kFaultPlanSchema = "nfvm-fault-plan-v1";

enum class FaultKind : std::uint8_t {
  kStallMs,
  kGarbage,
  kDupDepart,
  kUnknownDepart,
  kKill,
};

struct Fault {
  FaultKind kind = FaultKind::kGarbage;
  /// Kind-specific parameter (stall_ms: milliseconds).
  double value = 0.0;
};

class FaultPlan {
 public:
  /// An empty plan injects nothing.
  FaultPlan() = default;

  /// Parses a plan document. Throws std::invalid_argument describing the
  /// first violation (unknown kind, missing fields, bad schema, an integer
  /// out of range, a stall too long to sleep).
  static FaultPlan parse(std::string_view text);

  bool empty() const noexcept { return faults_.size() == 0; }
  std::size_t num_faults() const noexcept { return total_; }
  std::uint64_t seed() const noexcept { return seed_; }

  /// Faults scheduled for input line `line` (1-based), in plan order;
  /// nullptr when none.
  const std::vector<Fault>* at(std::uint64_t line) const;

  /// The deterministic junk `garbage` substitutes for line `line`: derived
  /// from (seed, line) only, never valid JSON.
  std::string garbage_line(std::uint64_t line) const;

 private:
  std::map<std::uint64_t, std::vector<Fault>> faults_;
  std::size_t total_ = 0;
  std::uint64_t seed_ = 1;
};

}  // namespace nfvm::serve
