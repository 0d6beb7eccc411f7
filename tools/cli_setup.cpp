#include "cli_setup.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/online_cp.h"
#include "core/online_sp.h"
#include "core/online_sp_static.h"
#include "obs/log.h"
#include "topology/geant.h"
#include "topology/rocketfuel.h"
#include "topology/transit_stub.h"
#include "topology/waxman.h"

namespace nfvm::cli {

namespace {

std::string g_usage_text;

/// The whole of `text` as a T, or nothing.
template <typename T>
std::optional<T> from_chars_whole(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// True iff `value` is one of the '|'-separated names in `accepted`.
bool one_of(std::string_view accepted, std::string_view value) {
  while (true) {
    const std::size_t bar = accepted.find('|');
    if (accepted.substr(0, bar) == value) return true;
    if (bar == std::string_view::npos) return false;
    accepted.remove_prefix(bar + 1);
  }
}

/// A value range and how a usage error spells it.
struct Range {
  bool (*contains)(double);
  const char* name;
};
constexpr Range kPositive{[](double x) { return x > 0.0; }, "positive"};
constexpr Range kNonNegative{[](double x) { return x >= 0.0; }, "non-negative"};
constexpr Range kUnit{[](double x) { return x >= 0.0 && x <= 1.0; }, "in [0, 1]"};
constexpr Range kAmplitude{[](double x) { return x >= 0.0 && x < 1.0; }, "in [0, 1)"};

/// args.real(), which must lie in `range`.
double real_in(Args& args, Range range) {
  const double value = args.real();
  if (!range.contains(value)) usage(args.flag() + " must be " + range.name);
  return value;
}

/// The generators reject a --nodes value they cannot build.
topo::Topology make_topology(const std::string& name, std::size_t nodes,
                             util::Rng& rng) try {
  if (name == "waxman") {
    topo::WaxmanOptions wo;
    wo.target_mean_degree = 4.0;
    return topo::make_waxman(nodes, rng, wo);
  }
  if (name == "transit-stub") return topo::make_transit_stub(nodes, rng);
  if (name == "geant") return topo::make_geant(rng);
  if (name == "as1755") return topo::make_as1755(rng);
  return topo::make_as4755(rng);  // validated at parse time
} catch (const std::invalid_argument& e) {
  usage(std::string("--nodes: ") + e.what());
}

}  // namespace

std::optional<double> parse_real(std::string_view text) {
  const auto value = from_chars_whole<double>(text);
  return value && std::isfinite(*value) ? value : std::nullopt;
}

void usage(const std::string& error) {
  if (!error.empty()) std::cerr << "error: " << error << "\n";
  std::cerr << g_usage_text;
  std::exit(error.empty() ? 0 : 2);
}

void validate_writable(const char* flag, const std::string& path) {
  if (path.empty()) return;
  if (path == "-") usage(std::string(flag) + " does not support \"-\" (stdout)");
  std::ofstream probe(path, std::ios::app);
  if (!probe) usage(std::string(flag) + ": cannot open \"" + path + "\" for writing");
}

std::string read_file(const char* flag, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) usage(std::string(flag) + ": cannot read \"" + path + "\"");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

Args::Args(int argc, char** argv, std::string usage_text) : argc_(argc), argv_(argv) {
  g_usage_text = std::move(usage_text);
}

bool Args::next() {
  if (++i_ >= argc_) return false;
  flag_ = argv_[i_];
  if (flag_ == "--help" || flag_ == "-h") usage("");
  return true;
}

std::string Args::value() {
  if (i_ + 1 >= argc_) usage("missing value for " + flag_);
  return argv_[++i_];
}

std::string Args::choice(std::string_view accepted) {
  std::string text = value();
  if (!one_of(accepted, text)) {
    usage(flag_ + " must be one of " + std::string(accepted) + " (got \"" + text + "\")");
  }
  return text;
}

std::uint64_t Args::count() {
  const std::string text = value();
  const auto parsed = from_chars_whole<std::uint64_t>(text);
  if (!parsed) usage(flag_ + " expects a non-negative integer (got \"" + text + "\")");
  return *parsed;
}

double Args::real() {
  const std::string text = value();
  const auto parsed = parse_real(text);
  if (!parsed) usage(flag_ + " expects a finite number (got \"" + text + "\")");
  return *parsed;
}

bool parse_flag(Args& args, NetworkFlags& flags) {
  const std::string& flag = args.flag();
  if (flag == "--topology") flags.topology = args.choice(kTopologies);
  else if (flag == "--nodes") flags.nodes = args.count();
  else if (flag == "--seed") flags.seed = args.count();
  else if (flag == "--max-delay") flags.max_delay_ms = real_in(args, kNonNegative);
  else return false;
  return true;
}

bool parse_flag(Args& args, WorkloadFlags& flags) {
  const std::string& flag = args.flag();
  if (flag == "--requests") flags.requests = args.count();
  else if (flag == "--dest-ratio") flags.dest_ratio = real_in(args, kUnit);
  else if (flag == "--arrival-rate") flags.arrival_rate = real_in(args, kPositive);
  else if (flag == "--mean-duration") flags.mean_duration = real_in(args, kPositive);
  else if (flag == "--diurnal-amplitude") flags.diurnal_amplitude = real_in(args, kAmplitude);
  else if (flag == "--diurnal-period") flags.diurnal_period = real_in(args, kPositive);
  else return false;
  return true;
}

bool parse_flag(Args& args, EngineFlags& flags, std::string_view algorithms) {
  const std::string& flag = args.flag();
  if (flag == "--algorithm") flags.algorithm = args.choice(algorithms);
  else if (flag == "--threads") flags.threads = args.count();
  else if (flag == "--metrics-json") flags.metrics_json = args.value();
  else if (flag == "--log-level")
    obs::set_log_level(*obs::parse_log_level(args.choice(kLogLevels)));
  else return false;
  return true;
}

sim::RequestGenOptions WorkloadFlags::request_gen() const {
  sim::RequestGenOptions options;
  if (dest_ratio > 0) {
    options.min_dest_ratio = dest_ratio;
    options.max_dest_ratio = dest_ratio;
  }
  return options;
}

topo::Topology build_topology(const NetworkFlags& flags, util::Rng& rng) {
  topo::Topology topo = make_topology(flags.topology, flags.nodes, rng);
  if (flags.max_delay_ms > 0) topo::assign_delays(topo, rng);
  return topo;
}

std::unique_ptr<core::OnlineAlgorithm> build_algorithm(const std::string& name,
                                                       const topo::Topology& topo) {
  if (name == "online_cp") return std::make_unique<core::OnlineCp>(topo);
  if (name == "online_sp") return std::make_unique<core::OnlineSp>(topo);
  return std::make_unique<core::OnlineSpStatic>(topo);  // validated at parse time
}

}  // namespace nfvm::cli
