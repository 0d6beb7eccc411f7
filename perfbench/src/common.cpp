#include "common.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>

#include "obs/hdr_histogram.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

void RunResult::add(std::string name, double value, std::string unit,
                    std::size_t samples) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

void RunResult::fail(const std::string& why) {
  correct = false;
  std::cerr << "perfbench: FAILED CHECK: " << why << "\n";
}

void RunResult::print(std::ostream& out) const {
  bool ok = correct;
  for (const std::string& line : notes) out << "# " << line << "\n";
  char row[160];
  std::snprintf(row, sizeof row, "%-44s %18s  %-6s %s\n", "metric", "value",
                "unit", "samples");
  out << row;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) ok = false;
    std::snprintf(row, sizeof row, "%-44s %18.6f  %-6s %s\n", m.name.c_str(),
                  m.value, m.unit.c_str(),
                  m.samples > 0 ? std::to_string(m.samples).c_str() : "-");
    out << row;
  }
  out << "{\"correct\": " << (ok ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << (std::isfinite(m.value) ? number(m.value) : "0") << ", \"unit\": \""
        << m.unit << "\"}";
  }
  out << "}}" << std::endl;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

BestTimes::BestTimes(std::size_t items)
    : best_us_(items, std::numeric_limits<double>::infinity()) {}

void BestTimes::add(std::size_t item, double us) {
  best_us_[item] = std::min(best_us_[item], us);
}

std::vector<double> BestTimes::best_us(
    const std::function<bool(std::size_t)>& keep) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < best_us_.size(); ++i) {
    if (keep(i)) out.push_back(best_us_[i]);
  }
  return out;
}

double BestTimes::total_s() const {
  return 1e-6 * std::accumulate(best_us_.begin(), best_us_.end(), 0.0);
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

namespace {

std::vector<int> g_cpus;
std::size_t g_cpu_at = 0;

/// Restricts every thread of process `pid` (0: this process) to `cpu`.
void pin_process(int pid, int cpu) {
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  CPU_SET(cpu, &chosen);
  const std::string tasks =
      "/proc/" + (pid > 0 ? std::to_string(pid) : std::string("self")) + "/task";
  std::error_code error;
  for (const auto& task : std::filesystem::directory_iterator(tasks, error)) {
    const pid_t tid = static_cast<pid_t>(std::stol(task.path().filename().string()));
    ::sched_setaffinity(tid, sizeof chosen, &chosen);
  }
}

}  // namespace

std::string pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return "";
  std::string list;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    g_cpus.push_back(cpu);
    if (!list.empty()) list += ',';
    list += std::to_string(cpu);
  }
  g_cpu_at = g_cpus.size() - 1;
  pin_process(0, g_cpus[g_cpu_at]);
  return list;
}

void move_to_cpu(std::size_t k, int daemon) {
  if (g_cpus.empty() || k % g_cpus.size() == g_cpu_at) return;
  g_cpu_at = k % g_cpus.size();
  pin_process(0, g_cpus[g_cpu_at]);
  if (daemon > 0) pin_process(daemon, g_cpus[g_cpu_at]);
}

double self_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  return 0.0;
}

Counters counters_now() {
  Counters out;
  for (const auto& [name, value] :
       nfvm::obs::Registry::global().counter_snapshot()) {
    out.emplace(name, value);
  }
  return out;
}

Counters counters_delta(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [name, value] : after) {
    out[name] = value - counter(before, name);
  }
  return out;
}

std::uint64_t counter(const Counters& counters, std::string_view name) {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

void check_counts_equal(const Counters& a, const Counters& b,
                        std::string_view what, RunResult& result) {
  static constexpr const char* kReported[] = {
      "graph.dijkstra.runs",
      "graph.dijkstra.dial_runs",
      "graph.dijkstra.edges_relaxed",
      "graph.dijkstra.edges_scanned",
      "graph.spcache.hits",
      "graph.spcache.misses",
      "graph.spcache.keyed_evictions",
      "graph.steiner.kmb.runs",
      "graph.steiner.kmb_finish.runs",
      "core.online.view_rebuilds",
      "core.online.view_patches",
      "core.online.view_policy_incremental",
      "core.online.view_policy_rebuild",
      "core.appro_multi.combinations_explored",
      "core.appro_multi.combinations_pruned",
      "pool.parallel_regions",
      "pool.tasks",
  };
  for (const char* name : kReported) {
    if (counter(a, name) != counter(b, name)) {
      result.fail("count " + std::string(name) + " differs between " +
                  std::string(what) + ": " + std::to_string(counter(a, name)) +
                  " vs " + std::to_string(counter(b, name)));
    }
  }
}

void check_recorded_digest(const RunOptions& options,
                           const std::string& input_digest,
                           const std::string& output_digest, RunResult& result) {
  const std::string path = options.work_dir + "/digests.txt";
  const std::string key = options.workload + " " +
                          std::to_string(options.seed) + " " + input_digest;
  {
    std::ifstream in(path);
    std::string workload, seed, inputs, recorded;
    while (in >> workload >> seed >> inputs >> recorded) {
      if (workload + " " + seed + " " + inputs != key) continue;
      if (recorded != output_digest) {
        result.fail("output digest " + output_digest + " differs from " +
                    recorded + ", recorded by an earlier run of " + key);
      }
      return;
    }
  }
  std::ofstream out(path, std::ios::app);
  out << key << " " << output_digest << "\n";
}

HdrState hdr_state(std::string_view name) {
  const nfvm::obs::HdrHistogram* h =
      nfvm::obs::Registry::global().hdr_histogram(name);
  return HdrState{h->count(), h->sum()};
}

double hdr_mean(const HdrState& before, const HdrState& after) {
  return ratio(after.sum - before.sum,
               static_cast<double>(after.count - before.count));
}

bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 Clock::time_point origin) {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& span : spans) {
    const bool root = std::string_view(span.name) == "request";
    out << "{\"name\":\"" << span.name << "\",\"item\":" << span.item
        << ",\"parent\":" << (root ? "null" : "\"request\"")
        << ",\"start_us\":" << number(us_between(origin, span.start))
        << ",\"dur_us\":" << number(us_between(span.start, span.end))
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
