// The command-line layer of the tools. Each flag that two or more of
// nfvm-sim, nfvm-serve and nfvm-serve-client take with the same meaning is
// matched, parsed, validated and documented here once; a tool keeps its own
// defaults where they differ, its accepted --algorithm set and its own flags.
// Every numeric value goes through the strict parsers (nfvm-report's too),
// so a bad one is a usage error (exit 2) before any work starts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/online.h"
#include "sim/request_gen.h"
#include "topology/topology.h"
#include "util/rng.h"

namespace nfvm::cli {

/// Accepted --topology values, '|'-separated as usage text prints them.
inline constexpr const char* kTopologies = "waxman|transit-stub|geant|as1755|as4755";
/// Accepted single --algorithm values (nfvm-sim also takes "all").
inline constexpr const char* kAlgorithms = "online_cp|online_sp|online_sp_static";
inline constexpr const char* kLogLevels = "error|warn|info|debug";

/// Strict number: std::from_chars must consume all of `text`, and the
/// value must be finite.
std::optional<double> parse_real(std::string_view text);

/// Prints "error: <error>" and the tool's usage text (given to Args) to
/// stderr and exits 2; an empty `error` (--help) exits 0.
[[noreturn]] void usage(const std::string& error);

/// Proves an output path writable at startup (open-for-append creates the
/// file without truncating it); "" passes, "-" (stdout) is a usage error.
void validate_writable(const char* flag, const std::string& path);

/// The whole file at `path`; an unreadable one is a usage error.
std::string read_file(const char* flag, const std::string& path);

/// Cursor over argv; every failure exits through usage().
class Args {
 public:
  /// `usage_text` is what usage() prints from now on.
  Args(int argc, char** argv, std::string usage_text);

  /// Steps to the next flag; false past the last. --help and -h print the
  /// usage text and exit 0.
  bool next();
  const std::string& flag() const { return flag_; }
  /// The flag's value: the next argument.
  std::string value();
  /// value(), which must be one of the '|'-separated names in `accepted`.
  std::string choice(std::string_view accepted);
  /// value() as a count (decimal digits only: no sign, no exponent) or
  /// through parse_real.
  std::uint64_t count();
  double real();

 private:
  int argc_;
  char** argv_;
  int i_ = 0;
  std::string flag_;
};

/// The network, for every tool:
///   --topology <waxman|transit-stub|geant|as1755|as4755>   (default waxman)
///   --nodes <n>       switches for generated topologies (default 100)
///   --seed <s>        RNG seed: the topology draws from seed, the workload
///                     from seed + 1 (default 1)
///   --max-delay <ms>  per-request delay bound; > 0 also assigns link delays,
///                     so a trace and its daemon need the same value
///                     (default 0 = unconstrained)
struct NetworkFlags {
  std::string topology = "waxman";
  std::size_t nodes = 100;
  std::uint64_t seed = 1;
  double max_delay_ms = 0.0;
};

/// The workload, for nfvm-sim and nfvm-serve-client:
///   --requests <r>           arrivals (each tool sets its default)
///   --dest-ratio <x>         fix Dmax/|V| in [0, 1] (default: U[0.05, 0.2])
///   --arrival-rate <x>       Poisson arrival rate (default 1.0)
///   --mean-duration <x>      mean exponential holding time (default 20.0)
///   --diurnal-amplitude <a>  rate modulation in [0, 1) (default 0):
///                            rate(t) = rate*(1 + a*sin(2*pi*t/period))
///   --diurnal-period <p>     modulation period in sim-time units (default 86400)
struct WorkloadFlags {
  std::size_t requests = 0;
  double dest_ratio = 0.0;
  double arrival_rate = 1.0;
  double mean_duration = 20.0;
  double diurnal_amplitude = 0.0;
  double diurnal_period = 86'400.0;

  /// Request generation with --dest-ratio applied.
  sim::RequestGenOptions request_gen() const;
};

/// The engine, for nfvm-sim and nfvm-serve:
///   --algorithm <name>     each tool sets its accepted names and default
///   --threads <n>          worker threads (default NFVM_THREADS, else 1);
///                          decisions are bit-identical for any thread count
///   --metrics-json <file>  dump the metrics registry as JSON at exit
///   --log-level <level>    error|warn|info|debug (default warn); applied as
///                          soon as it is parsed
struct EngineFlags {
  std::string algorithm;
  std::size_t threads = 0;
  std::string metrics_json{};
};

/// Each consumes the current flag (and its value) into `flags` and returns
/// true when the flag belongs to that group.
bool parse_flag(Args& args, NetworkFlags& flags);
bool parse_flag(Args& args, WorkloadFlags& flags);
bool parse_flag(Args& args, EngineFlags& flags, std::string_view algorithms);

/// The network for `flags`, drawn from `rng` (seeded with --seed in each
/// tool's main), link delays last.
topo::Topology build_topology(const NetworkFlags& flags, util::Rng& rng);

/// A fresh instance of the named algorithm; `name` must be in kAlgorithms.
std::unique_ptr<core::OnlineAlgorithm> build_algorithm(const std::string& name,
                                                       const topo::Topology& topo);

}  // namespace nfvm::cli
