// Shared plumbing of the perfbench driver: run options, the result record
// printed as the benchmark's last output line, sample statistics, reply
// digests and metrics-registry deltas.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}
inline double s_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics; true: per-layer metrics (traced replay).
  bool trace = false;
  /// Scratch directory for daemon sockets and span dumps.
  std::string work_dir = ".";
};

/// One reported figure. `samples` is printed in the human-readable table
/// (0 for figures that are not sample statistics).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Context lines printed before the table (seeds, digests, ledger).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0);
  /// Marks the run incorrect and records why (printed to stderr).
  void fail(const std::string& why);
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Human-readable table, then the one-line JSON result.
  void print(std::ostream& out) const;
};

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> samples, double q);
double mean(const std::vector<double>& samples);
/// a / b, or 0 when b == 0.
double ratio(double a, double b);

/// Setup (daemon start online, input build offline) is sampled every
/// `kSetupEveryS` seconds between requests, and at least `kMinSetupSamples`
/// times per run. Host speed changes within seconds, so samples taken in one
/// burst would all see the same moment of it.
constexpr double kSetupEveryS = 0.5;
constexpr std::size_t kMinSetupSamples = 25;

/// Best (lowest) time of each item of a run over the passes that repeat
/// it. A run passes over the same items (trace lines, offline requests)
/// several times, and every pass does the same work. The host slows a CPU
/// by 1.5x and more for seconds, sometimes minutes, at a time; timings
/// pooled over every pass would read how much of the run such stretches
/// took, not how fast the program is. A run moves to the next CPU every
/// half second or so of items, and starts each pass one CPU further on, so
/// an item's passes run on different CPUs and its best pass rarely falls
/// into such a stretch.
class BestTimes {
 public:
  explicit BestTimes(std::size_t items);
  /// Records one pass's time for `item`.
  void add(std::size_t item, double us);
  /// The best time of each item for which `keep(item)` holds.
  std::vector<double> best_us(const std::function<bool(std::size_t)>& keep) const;
  /// Sum of every item's best time, in seconds.
  double total_s() const;

 private:
  std::vector<double> best_us_;
};

/// FNV-1a over a byte stream: the timing-free reply digest.
class Digest {
 public:
  void add(std::string_view bytes);
  void add_line(std::string_view line) {
    add(line);
    add("\n");
  }
  std::uint64_t value() const noexcept { return hash_; }
  std::string hex() const;

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// Everything a run starts shares one CPU at a time. `pin_to_one_cpu` pins
/// this process to the last CPU it may use (call it before any thread
/// exists; threads and processes started later inherit the pin) and returns
/// the CPUs it may use ("0,1,2,3"), or "" when affinity is unavailable.
/// `move_to_cpu(k)` moves every thread of this process, and of process
/// `daemon` when it is positive, to the k-th of those CPUs (k taken modulo
/// their count).
std::string pin_to_one_cpu();
void move_to_cpu(std::size_t k, int daemon = 0);

/// Peak resident set of this process (VmHWM), MiB.
double self_peak_rss_mb();

/// Counter values of the process-wide metrics registry.
using Counters = std::map<std::string, std::uint64_t>;
Counters counters_now();
/// after - before, per name (names absent before count from 0).
Counters counters_delta(const Counters& before, const Counters& after);
std::uint64_t counter(const Counters& counters, std::string_view name);
/// Fails `result` for every count behind a per-layer metric that differs
/// between two replays of the same inputs: work counts are exact for a
/// pinned seed. (Scheduling-dependent counters, such as per-thread CSR
/// snapshot rebuilds, are not among them.)
void check_counts_equal(const Counters& a, const Counters& b,
                        std::string_view what, RunResult& result);

/// Cross-run output check: compares `output_digest` with the one an earlier
/// run recorded under the work directory for the same workload, seed and
/// inputs (`input_digest`), and records it when there is none. Fails
/// `result` on a mismatch.
void check_recorded_digest(const RunOptions& options,
                           const std::string& input_digest,
                           const std::string& output_digest, RunResult& result);

/// Mean of an HDR histogram of the global registry over an interval:
/// callers take `hdr_state` before and after and pass both.
struct HdrState {
  std::uint64_t count = 0;
  double sum = 0.0;
};
HdrState hdr_state(std::string_view name);
double hdr_mean(const HdrState& before, const HdrState& after);

/// One traced call into a layer: `name` is the layer metric it feeds, `item`
/// the request (trace line or offline call) it belongs to. Spans of one item
/// nest inside that item's "request" span.
struct Span {
  const char* name;
  std::uint64_t item;
  Clock::time_point start;
  Clock::time_point end;
};

/// Writes spans as JSONL ({"name","item","parent","start_us","dur_us"}),
/// times relative to `origin`. Returns false when the file cannot be opened.
bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 Clock::time_point origin);

RunResult run_online(const RunOptions& options);
RunResult run_offline(const RunOptions& options);
bool is_online_workload(std::string_view name);
bool is_offline_workload(std::string_view name);

}  // namespace perfbench
