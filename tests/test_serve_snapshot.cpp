// serve/snapshot.h + serve/daemon.h: snapshot serialization round trip
// (bit-exact residual doubles), atomic write/load, truncated-file rejection
// with byte-offset provenance, and the tentpole guarantee - a daemon
// restored from a mid-stream snapshot continues the reply stream
// byte-identically to an uninterrupted run, with departures interleaved, at
// thread counts 1 and 4. Also the daemon loop: each reply reaches the
// stream in one write, and a stall sheds exactly the arrives queued behind
// it.
#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/online_cp.h"
#include "obs_test_util.h"
#include "serve/daemon.h"
#include "serve/fault_plan.h"
#include "serve/snapshot.h"
#include "serve/trace_gen.h"
#include "sim/request_gen.h"
#include "topology/waxman.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace nfvm::serve {
namespace {

topo::Topology make_topo() {
  util::Rng rng(11);
  return topo::make_waxman(40, rng);
}

std::map<std::string, std::string> test_config() {
  return {{"topology", "waxman"}, {"nodes", "40"}, {"seed", "11"}};
}

std::string make_trace(const topo::Topology& topo, std::size_t requests) {
  std::ostringstream out;
  util::Rng rng(23);
  TraceGenOptions options;
  options.num_requests = requests;
  options.arrival_rate = 20.0;   // high load so rejections occur too
  options.mean_duration = 40.0;
  write_serve_trace(out, topo, rng, options);
  return out.str();
}

/// First `lines` lines of `text` (trailing newlines included).
std::string head_lines(const std::string& text, std::size_t lines) {
  std::size_t pos = 0;
  for (std::size_t i = 0; i < lines; ++i) {
    pos = text.find('\n', pos);
    if (pos == std::string::npos) return text;
    ++pos;
  }
  return text.substr(0, pos);
}

std::size_t count_lines(const std::string& text) {
  std::size_t n = 0;
  for (char c : text) n += c == '\n';
  return n;
}

/// Lines from a std::istream, CR-stripped like the daemon's fd reader. It
/// never blocks: every line is there already.
class IstreamLineSource final : public LineSource {
 public:
  explicit IstreamLineSource(std::istream& in) : in_(in) {}
  ReadStatus next(std::string& line, bool /*wait*/) override {
    if (!std::getline(in_, line)) return ReadStatus::kEnd;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return ReadStatus::kLine;
  }

 private:
  std::istream& in_;
};

std::string run_daemon(core::OnlineAlgorithm& algorithm,
                       const std::string& input, const DaemonOptions& options,
                       const Snapshot* restore_from = nullptr) {
  Daemon daemon(algorithm, test_config(), options);
  if (restore_from != nullptr) daemon.restore(*restore_from);
  std::istringstream in(input);
  IstreamLineSource source(in);
  std::ostringstream out;
  daemon.run(source, out);
  return out.str();
}

/// A scratch file of the running test: ctest runs each test of this file in
/// its own process, in parallel, so two tests must never share a file.
std::string temp_path(const char* name) {
  return testing::TempDir() +
         testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
         name;
}

// ---------------------------------------------------------------------------
// Serialization round trip
// ---------------------------------------------------------------------------

TEST(ServeSnapshot, RoundTripIsBitExact) {
  Snapshot snapshot;
  snapshot.seq = 7;
  snapshot.algorithm = "Online_CP";
  snapshot.config = {{"nodes", "40"}, {"topology", "waxman"}};
  snapshot.lines_consumed = 123;
  snapshot.bytes_consumed = 45678;
  snapshot.replies_emitted = 123;
  snapshot.num_admitted = 60;
  snapshot.num_rejected = 3;
  // Values with no short decimal representation - the round trip must
  // reproduce every bit, not just a near value.
  snapshot.residuals.bandwidth = {0.1 + 0.2, 1.0 / 3.0, 1e-300, 1000.0};
  snapshot.residuals.compute = {2999.9999999999995, 0.0};
  snapshot.residuals.table = {};
  snapshot.counters.lines = 123;
  snapshot.counters.admitted = 60;
  snapshot.counters.rejected = 3;
  snapshot.counters.departed = 20;
  ActiveEntry entry;
  entry.id = 41;
  entry.footprint.bandwidth = {{2, 120.5}, {5, 120.5}};
  entry.footprint.compute = {{3, 301.25}};
  entry.footprint.table_entries = {2, 3, 5};
  snapshot.active.push_back(entry);
  snapshot.rejected_pending = {40, 44};

  const std::string path = temp_path("roundtrip.snap");
  write_snapshot(path, snapshot);
  const Snapshot loaded = load_snapshot(path);

  EXPECT_EQ(loaded.seq, snapshot.seq);
  EXPECT_EQ(loaded.algorithm, snapshot.algorithm);
  EXPECT_EQ(loaded.config, snapshot.config);
  EXPECT_EQ(loaded.lines_consumed, snapshot.lines_consumed);
  EXPECT_EQ(loaded.bytes_consumed, snapshot.bytes_consumed);
  EXPECT_EQ(loaded.replies_emitted, snapshot.replies_emitted);
  EXPECT_EQ(loaded.num_admitted, snapshot.num_admitted);
  EXPECT_EQ(loaded.num_rejected, snapshot.num_rejected);
  // Bit-exact: == on doubles, deliberately.
  EXPECT_EQ(loaded.residuals.bandwidth, snapshot.residuals.bandwidth);
  EXPECT_EQ(loaded.residuals.compute, snapshot.residuals.compute);
  EXPECT_EQ(loaded.residuals.table, snapshot.residuals.table);
  EXPECT_EQ(loaded.counters.lines, snapshot.counters.lines);
  EXPECT_EQ(loaded.counters.departed, snapshot.counters.departed);
  ASSERT_EQ(loaded.active.size(), 1u);
  EXPECT_EQ(loaded.active[0].id, entry.id);
  EXPECT_EQ(loaded.active[0].footprint.bandwidth, entry.footprint.bandwidth);
  EXPECT_EQ(loaded.active[0].footprint.compute, entry.footprint.compute);
  EXPECT_EQ(loaded.active[0].footprint.table_entries,
            entry.footprint.table_entries);
  EXPECT_EQ(loaded.rejected_pending, snapshot.rejected_pending);
  std::remove(path.c_str());
}

TEST(ServeSnapshot, TruncatedFileFailsWithPathAndOffset) {
  const std::string path =
      std::string(NFVM_SOURCE_DIR) + "/tests/data/snapshot_truncated.json";
  try {
    load_snapshot(path);
    FAIL() << "truncated snapshot loaded without error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("snapshot_truncated.json"), std::string::npos) << what;
    EXPECT_NE(what.find("byte"), std::string::npos) << what;
  }
}

TEST(ServeSnapshot, MissingFileFailsCleanly) {
  EXPECT_THROW(load_snapshot(temp_path("does_not_exist.snap")),
               std::runtime_error);
}

TEST(ServeSnapshot, RestoreRejectsWrongTopologyShape) {
  const topo::Topology topo = make_topo();
  core::OnlineCp algorithm(topo);
  Snapshot snapshot;
  snapshot.residuals.bandwidth = {1.0, 2.0};  // wrong link count
  snapshot.residuals.compute.assign(40, 1000.0);
  EXPECT_THROW(restore_into(algorithm, snapshot), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Corrupt snapshots
// ---------------------------------------------------------------------------

/// A daemon's snapshot after the first 60 lines of a trace, as written.
std::string real_snapshot_text(const topo::Topology& topo) {
  const std::string path = temp_path("corrupt_base.snap");
  DaemonOptions options;
  options.snapshot_path = path;
  core::OnlineCp algorithm(topo);
  run_daemon(algorithm, head_lines(make_trace(topo, 100), 60), options);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  return text.str();
}

/// `text` with the first footprint's first bandwidth edge id replaced.
std::string with_first_edge_id(std::string text, const std::string& id) {
  const std::string key = "\"bandwidth\":[[";
  const std::size_t start = text.find(key);
  EXPECT_NE(start, std::string::npos) << "no active footprint in the snapshot";
  if (start == std::string::npos) return text;
  const std::size_t begin = start + key.size();
  return text.replace(begin, text.find(',', begin) - begin, id);
}

Snapshot load_text(const std::string& text) {
  const std::string path = temp_path("corrupt.snap");
  {
    std::ofstream out(path);
    out << text;
  }
  try {
    Snapshot snapshot = load_snapshot(path);
    std::remove(path.c_str());
    return snapshot;
  } catch (...) {
    std::remove(path.c_str());
    throw;
  }
}

TEST(ServeSnapshot, IdsThatNoIdTypeHoldsAreRejectedOnLoad) {
  const std::string text = real_snapshot_text(make_topo());
  EXPECT_NO_THROW(load_text(text));
  // Negative, fractional, past 2^32 (once truncated onto edge 1), past
  // 2^64: each used to load and crash or corrupt the first depart.
  for (const char* id : {"-1", "3.5", "1e10", "4294967297", "1e30"}) {
    EXPECT_THROW(load_text(with_first_edge_id(text, id)), std::runtime_error)
        << "edge id " << id;
  }
  // Counters and sequence numbers are whole numbers as well.
  std::string seq = text;
  const std::size_t at = seq.find("\"seq\":");
  ASSERT_NE(at, std::string::npos);
  seq.insert(seq.find(',', at), ".5");
  EXPECT_THROW(load_text(seq), std::runtime_error);
}

TEST(ServeSnapshot, RestoreRejectsFootprintOutsideTheTopology) {
  const topo::Topology topo = make_topo();
  const Snapshot snapshot =
      load_text(with_first_edge_id(real_snapshot_text(topo), "100000"));
  core::OnlineCp algorithm(topo);
  const nfv::ResourceResiduals before = algorithm.resources().export_residuals();
  Daemon daemon(algorithm, test_config(), DaemonOptions{});
  EXPECT_THROW(daemon.restore(snapshot), std::runtime_error);
  // Rejected before any state changed.
  EXPECT_EQ(algorithm.resources().export_residuals().bandwidth, before.bandwidth);
  EXPECT_EQ(algorithm.num_admitted(), 0u);
}

/// `text` with the first footprint's first bandwidth amount replaced.
std::string with_first_amount(std::string text, const std::string& amount) {
  const std::string key = "\"bandwidth\":[[";
  const std::size_t start = text.find(key);
  EXPECT_NE(start, std::string::npos) << "no active footprint in the snapshot";
  if (start == std::string::npos) return text;
  const std::size_t begin = text.find(',', start + key.size()) + 1;
  return text.replace(begin, text.find(']', begin) - begin, amount);
}

TEST(ServeSnapshot, AmountsThatAreNotFiniteNonNegativeNumbersAreRejectedOnLoad) {
  const std::string text = real_snapshot_text(make_topo());
  // A string used to load as 0 and a negative amount unchanged.
  for (const char* amount : {"-1", "\"50\""}) {
    EXPECT_THROW(load_text(with_first_amount(text, amount)), std::runtime_error)
        << "amount " << amount;
  }
}

TEST(ServeSnapshot, RestoreRejectsAmountsTheLedgerCannotTakeBack) {
  const topo::Topology topo = make_topo();
  // A well-formed amount, but no link of the network can carry it: the
  // request's depart would throw out of ResourceState::release.
  const Snapshot snapshot =
      load_text(with_first_amount(real_snapshot_text(topo), "1e9"));
  core::OnlineCp algorithm(topo);
  const nfv::ResourceResiduals before = algorithm.resources().export_residuals();
  Daemon daemon(algorithm, test_config(), DaemonOptions{});
  EXPECT_THROW(daemon.restore(snapshot), std::runtime_error);
  // Rejected before any state changed.
  EXPECT_EQ(algorithm.resources().export_residuals().bandwidth, before.bandwidth);
  EXPECT_EQ(algorithm.num_admitted(), 0u);
}

// ---------------------------------------------------------------------------
// Crash/restore decision-stream equivalence
// ---------------------------------------------------------------------------

void expect_restore_equivalence(std::size_t threads) {
  util::ThreadPool::set_global_threads(threads);
  const topo::Topology topo = make_topo();
  const std::string trace = make_trace(topo, 400);
  const std::size_t total_lines = count_lines(trace);
  const std::size_t cut = total_lines / 2;

  // Reference: one uninterrupted run.
  core::OnlineCp full_algo(topo);
  const std::string full = run_daemon(full_algo, trace, DaemonOptions{});

  // "Crashed" run: consume only the first half; the final snapshot at
  // run() exit covers exactly those lines.
  const std::string snap_path = temp_path("equiv.snap");
  DaemonOptions snap_options;
  snap_options.snapshot_path = snap_path;
  core::OnlineCp crashed_algo(topo);
  const std::string part1 =
      run_daemon(crashed_algo, head_lines(trace, cut), snap_options);
  ASSERT_EQ(count_lines(part1), cut);

  // Restored run over the SAME full trace: the daemon skips the consumed
  // prefix and must continue byte-identically.
  const Snapshot snapshot = load_snapshot(snap_path);
  ASSERT_EQ(snapshot.lines_consumed, cut);
  core::OnlineCp restored_algo(topo);
  const std::string part2 =
      run_daemon(restored_algo, trace, DaemonOptions{}, &snapshot);

  EXPECT_EQ(full, part1 + part2)
      << "reply stream diverged across the restore boundary (threads="
      << threads << ")";
  std::remove(snap_path.c_str());
}

TEST(ServeSnapshot, RestoredStreamIsByteIdenticalSingleThread) {
  expect_restore_equivalence(1);
}

TEST(ServeSnapshot, RestoredStreamIsByteIdenticalFourThreads) {
  expect_restore_equivalence(4);
}

TEST(ServeSnapshot, ViewWeightsAreAPureFunctionOfRestoredResiduals) {
  // The snapshot deliberately does NOT serialize Online_CP's weighted graph
  // or its stored trees: the weights are a pure function of the residuals,
  // so an instance restored from bit-exact residuals re-reads them edge for
  // edge and decides exactly like the live one, while the patch count and
  // the stored trees - performance state only - differ.
  const test::CounterBaseline counters;
  const topo::Topology topo = make_topo();
  util::Rng workload(29);
  sim::RequestGenerator gen(topo, workload);
  const std::vector<nfv::Request> requests = gen.sequence(160);
  constexpr std::size_t kHead = 100;

  // Admissions and releases patch the live instance's weights.
  core::OnlineCp live(topo);
  std::deque<nfv::Footprint> held;
  for (std::size_t i = 0; i < kHead; ++i) {
    const core::AdmissionDecision d = live.process(requests[i]);
    if (d.admitted) held.push_back(d.footprint);
    if (i % 4 == 3 && !held.empty()) {
      live.release(held.front());
      held.pop_front();
    }
  }
#if NFVM_OBS
  const std::uint64_t patches = counters.since("core.online.view_patches");
  ASSERT_GT(patches, 0u);
#endif

  core::OnlineCp restored(topo);
  restored.restore_resources(live.resources().export_residuals());
#if NFVM_OBS
  // The restored instance took another path to the same weights: it
  // applied no patch.
  EXPECT_EQ(counters.since("core.online.view_patches"), patches);
#endif

  std::size_t admitted = 0;
  for (std::size_t i = kHead; i < requests.size(); ++i) {
    const core::AdmissionDecision a = live.process(requests[i]);
    const core::AdmissionDecision b = restored.process(requests[i]);
    ASSERT_EQ(a.admitted, b.admitted) << "request " << i;
    EXPECT_EQ(a.reject_reason, b.reject_reason) << "request " << i;
    EXPECT_EQ(a.tree.servers, b.tree.servers) << "request " << i;
    EXPECT_EQ(a.tree.cost, b.tree.cost) << "request " << i;  // bit-exact
    EXPECT_EQ(a.tree.edge_uses, b.tree.edge_uses) << "request " << i;
    EXPECT_EQ(a.footprint.bandwidth, b.footprint.bandwidth) << "request " << i;
    if (a.admitted) ++admitted;
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_EQ(live.resources().export_residuals().bandwidth,
            restored.resources().export_residuals().bandwidth);
}

// ---------------------------------------------------------------------------
// Reply writes and overload shedding
// ---------------------------------------------------------------------------

/// Keeps each call a stream makes on it as one entry; with no put area,
/// every character reaches xsputn or overflow, as on nfvm-serve's
/// unbuffered socket stream, where each call is one write(2).
class WriteRecorder final : public std::streambuf {
 public:
  std::vector<std::string> writes;

 protected:
  int overflow(int ch) override {
    if (ch == traits_type::eof()) return traits_type::not_eof(ch);
    writes.emplace_back(1, static_cast<char>(ch));
    return ch;
  }
  std::streamsize xsputn(const char* data, std::streamsize count) override {
    writes.emplace_back(data, static_cast<std::size_t>(count));
    return count;
  }
};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(ServeDaemon, EveryReplyIsOneWriteEndingInNewline) {
  const topo::Topology topo = make_topo();
  core::OnlineCp algorithm(topo);
  // Every reply kind: arrive, depart, parse error, stats, a snapshot with no
  // path configured, drain.
  const std::string input = head_lines(make_trace(topo, 40), 60) +
                            "{not json\n"
                            "{\"cmd\":\"stats\"}\n"
                            "{\"cmd\":\"snapshot\"}\n"
                            "{\"cmd\":\"drain\"}\n";
  Daemon daemon(algorithm, test_config(), DaemonOptions{});
  std::istringstream in(input);
  IstreamLineSource source(in);
  WriteRecorder recorder;
  std::ostream out(&recorder);
  const DaemonStats stats = daemon.run(source, out);
  EXPECT_EQ(stats.stop_cause, "drain");
  ASSERT_EQ(recorder.writes.size(), count_lines(input));
  EXPECT_EQ(stats.replies_emitted, recorder.writes.size());
  for (std::size_t i = 0; i < recorder.writes.size(); ++i) {
    const std::string& write = recorder.writes[i];
    EXPECT_EQ(write.find('\n'), write.size() - 1)
        << "reply " << i + 1 << " is not one line ending in a newline: " << write;
  }
}

TEST(ServeDaemon, StallShedsExactlyTheArrivesQueuedBehindIt) {
  // A 100 ms stall at line k with a 4-line queue and a 20 ms deadline: the
  // lines k+1..k+4 are queued before the stall starts, so its arrives are
  // shed; line k+5 enters the queue after it and is served.
  constexpr std::size_t kStallLine = 40;
  constexpr std::size_t kQueue = 4;
  util::Rng rng(11);
  const topo::Topology topo = topo::make_waxman(30, rng);
  const std::string input = make_trace(topo, 60);
  const std::vector<std::string> trace = split_lines(input);
  DaemonOptions options;
  options.max_inflight = kQueue;
  options.request_deadline_ms = 20.0;
  options.fault_plan = FaultPlan::parse(
      R"({"schema": "nfvm-fault-plan-v1", "seed": 1, "faults": [{"line": )" +
      std::to_string(kStallLine) + R"(, "kind": "stall_ms", "value": 100}]})");
  core::OnlineCp algorithm(topo);
  const std::vector<std::string> replies =
      split_lines(run_daemon(algorithm, input, options));
  ASSERT_EQ(replies.size(), trace.size());

  std::vector<std::size_t> shed;
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::size_t number = i + 1;
    if (replies[i].find("\"shed\":true") != std::string::npos) shed.push_back(number);
    if (number > kStallLine && number <= kStallLine + kQueue &&
        trace[i].starts_with("{\"cmd\":\"arrive\"")) {
      expected.push_back(number);
    }
  }
  ASSERT_FALSE(expected.empty()) << "no arrive line behind the stall";
  EXPECT_EQ(shed, expected);
}

TEST(ServeSnapshot, RestoreVerifiesConfigEcho) {
  const topo::Topology topo = make_topo();
  core::OnlineCp algorithm(topo);
  Daemon daemon(algorithm, test_config(), DaemonOptions{});
  Snapshot snapshot = daemon.make_snapshot(0, 0, 0);
  snapshot.config["seed"] = "999";
  core::OnlineCp other(topo);
  Daemon fresh(other, test_config(), DaemonOptions{});
  EXPECT_THROW(fresh.restore(snapshot), std::runtime_error);
}

}  // namespace
}  // namespace nfvm::serve
