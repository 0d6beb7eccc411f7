// Online workloads: a closed-loop replay of a generated trace against a
// freshly spawned `nfvm-serve --socket` daemon, and (traced runs) the same
// trace replayed in process with timers around every call into the serve
// and core layers.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "common.h"
#include "core/online_cp.h"
#include "core/online_sp.h"
#include "serve/protocol.h"
#include "serve/trace_gen.h"
#include "topology/geant.h"
#include "topology/waxman.h"
#include "util/rng.h"
#include "util/thread_pool.h"

extern char** environ;

namespace perfbench {

namespace {

using namespace nfvm;

struct OnlineWorkload {
  const char* name;
  const char* topology;  ///< nfvm-serve --topology
  std::size_t nodes;     ///< switches (waxman only)
  const char* algorithm;
  double arrival_rate;
  double mean_duration;
  std::size_t arrivals;  ///< arrive lines per trace (each with one depart)
};

constexpr OnlineWorkload kWorkloads[] = {
    {"cp_waxman400_churn", "waxman", 400, "online_cp", 20.0, 40.0, 2000},
    {"sp_geant_serve", "geant", 40, "online_sp", 5.0, 40.0, 2000},
};

/// Fixed for every run: only the trace (the run's --seed) varies.
constexpr std::uint64_t kTopologySeed = 11;
constexpr double kReplyTimeoutS = 30.0;
/// Trace lines between two CPU moves of an untraced run: about half a
/// second of the CP trace (a GEANT replay is shorter than that).
constexpr std::size_t kLinesPerCpu = 200;

const OnlineWorkload* find_workload(std::string_view name) {
  for (const OnlineWorkload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Mirrors nfvm-serve's topology construction for the same flags.
topo::Topology build_topology(const OnlineWorkload& w) {
  util::Rng rng(kTopologySeed);
  if (std::string_view(w.topology) == "waxman") {
    topo::WaxmanOptions options;
    options.target_mean_degree = 4.0;
    return topo::make_waxman(w.nodes, rng, options);
  }
  return topo::make_geant(rng);
}

std::unique_ptr<core::OnlineAlgorithm> build_algorithm(
    const OnlineWorkload& w, const topo::Topology& topo) {
  if (std::string_view(w.algorithm) == "online_cp") {
    return std::make_unique<core::OnlineCp>(topo);
  }
  return std::make_unique<core::OnlineSp>(topo);
}

std::vector<std::string> make_trace(const OnlineWorkload& w,
                                    const topo::Topology& topo,
                                    std::uint64_t seed) {
  serve::TraceGenOptions options;
  options.num_requests = w.arrivals;
  options.arrival_rate = w.arrival_rate;
  options.mean_duration = w.mean_duration;
  util::Rng rng(seed);
  std::ostringstream out;
  serve::write_serve_trace(out, topo, rng, options);
  std::vector<std::string> lines;
  std::istringstream in(out.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

bool is_arrive_line(std::string_view line) {
  return line.starts_with(R"({"cmd":"arrive")");
}

/// A spawned nfvm-serve. The destructor kills and reaps a daemon that is
/// still running, so no exit path leaves one behind.
class ServeProcess {
 public:
  ServeProcess(const std::vector<std::string>& argv, const std::string& log) {
    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    ::posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    ::posix_spawn_file_actions_addopen(&actions, 2, log.c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    if (::posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                      environ) != 0) {
      pid_ = -1;
    }
    ::posix_spawn_file_actions_destroy(&actions);
  }
  ~ServeProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  bool spawned() const noexcept { return pid_ > 0; }
  pid_t pid() const noexcept { return pid_; }

  bool running() {
    if (pid_ <= 0) return false;
    if (::waitpid(pid_, nullptr, WNOHANG) == 0) return true;
    pid_ = -1;
    return false;
  }

  /// Waits for a clean exit; fills the daemon's peak RSS (wait4 rusage).
  bool wait_exit(double timeout_s, double& peak_rss_mb) {
    const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
    for (;;) {
      int status = 0;
      rusage usage{};
      const pid_t r = ::wait4(pid_, &status, WNOHANG, &usage);
      if (r == pid_) {
        pid_ = -1;
        peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      if (r < 0 || Clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  pid_t pid_ = -1;
};

/// One client connection speaking newline-delimited lines.
class LineConnection {
 public:
  explicit LineConnection(int fd) : fd_(fd) {}
  ~LineConnection() { close(); }
  LineConnection(const LineConnection&) = delete;
  LineConnection& operator=(const LineConnection&) = delete;

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool send_line(std::string_view line) {
    out_.assign(line);
    out_ += '\n';
    std::size_t done = 0;
    while (done < out_.size()) {
      const ssize_t n =
          ::send(fd_, out_.data() + done, out_.size() - done, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      done += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool read_line(std::string& line, double timeout_s) {
    const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
    for (;;) {
      const std::size_t newline = in_.find('\n');
      if (newline != std::string::npos) {
        line.assign(in_, 0, newline);
        in_.erase(0, newline + 1);
        return true;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return false;
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return false;
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      in_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string out_;
  std::string in_;
};

/// Retries connect() until the daemon listens, it dies, or the timeout.
int connect_when_ready(const std::string& path, ServeProcess& daemon,
                       double timeout_s) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      return fd;
    }
    ::close(fd);
    if (!daemon.running() || Clock::now() > deadline) return -1;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

struct SocketRun {
  std::string error;  ///< empty on success
  std::vector<std::string> replies;
  std::vector<double> arrive_us;  ///< client send -> reply, arrive lines
  std::vector<double> line_us;    ///< client send -> reply, every line
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
};

class DaemonRunner {
 public:
  /// `role` names the runner's socket and log, so a setup-only daemon can
  /// start while a replay's daemon is still serving.
  DaemonRunner(const OnlineWorkload& w, const RunOptions& options,
               const std::string& role)
      : socket_path_(options.work_dir + "/serve-" + std::to_string(::getpid()) +
                     "-" + role + ".sock"),
        log_path_(options.work_dir + "/serve-" + role + "-stderr.log") {
    argv_ = {PERFBENCH_SERVE_BIN, "--topology", w.topology,
             "--seed", std::to_string(kTopologySeed),
             "--algorithm", w.algorithm,
             "--threads", "1",
             "--socket", socket_path_};
    if (std::string_view(w.topology) == "waxman") {
      argv_.insert(argv_.end(), {"--nodes", std::to_string(w.nodes)});
    }
  }

  /// Spawns a daemon, replays `trace` closed-loop (one line outstanding),
  /// then drains it. An empty trace measures setup alone.
  /// `after_reply(i, daemon_pid)`, when given, runs after line i's reply and
  /// before line i + 1 is sent.
  SocketRun replay(
      const std::vector<std::string>& trace,
      const std::function<void(std::size_t, pid_t)>& after_reply = {}) const {
    SocketRun run;
    ::unlink(socket_path_.c_str());
    const Clock::time_point spawn = Clock::now();
    ServeProcess daemon(argv_, log_path_);
    if (!daemon.spawned()) {
      run.error = "cannot spawn " + argv_[0];
      return run;
    }
    const int fd = connect_when_ready(socket_path_, daemon, kReplyTimeoutS);
    if (fd < 0) {
      run.error = "daemon never accepted a connection (see " + log_path_ + ")";
      return run;
    }
    run.setup_s = s_between(spawn, Clock::now());
    LineConnection connection(fd);
    std::string reply;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const Clock::time_point sent = Clock::now();
      if (!connection.send_line(trace[i]) ||
          !connection.read_line(reply, kReplyTimeoutS)) {
        run.error = "no reply to trace line " + std::to_string(i + 1);
        return run;
      }
      const double us = us_between(sent, Clock::now());
      run.line_us.push_back(us);
      if (is_arrive_line(trace[i])) run.arrive_us.push_back(us);
      run.replies.push_back(reply);
      if (after_reply) after_reply(i, daemon.pid());
    }
    if (!connection.send_line(R"({"cmd":"drain"})") ||
        !connection.read_line(reply, kReplyTimeoutS) ||
        reply.find(R"("cmd":"drain")") == std::string::npos) {
      run.error = "drain was not acknowledged";
      return run;
    }
    connection.close();
    if (!daemon.wait_exit(kReplyTimeoutS, run.peak_rss_mb)) {
      run.error = "daemon did not exit cleanly after drain";
    }
    return run;
  }

  void cleanup() const { ::unlink(socket_path_.c_str()); }

 private:
  std::string socket_path_;
  std::string log_path_;
  std::vector<std::string> argv_;
};

/// Decision outcome of a reply stream (replies are timing-free, so every
/// replay of one trace yields the same tally).
struct Tally {
  std::uint64_t arrives = 0;
  std::uint64_t admitted = 0;
  std::uint64_t failed = 0;
  double cost_sum = 0.0;
};

Tally tally(const std::vector<std::string>& trace,
            const std::vector<std::string>& replies) {
  Tally t;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const std::string& reply = replies[i];
    if (!reply.starts_with(R"({"ok":true)") ||
        reply.find(R"("shed":true)") != std::string::npos) {
      ++t.failed;
    }
    if (!is_arrive_line(trace[i])) continue;
    ++t.arrives;
    if (reply.find(R"("admitted":true)") == std::string::npos) continue;
    ++t.admitted;
    const std::size_t at = reply.find(R"("cost":)");
    if (at != std::string::npos) {
      t.cost_sum += std::strtod(reply.c_str() + at + 7, nullptr);
    }
  }
  // Lines that never got a reply count as failed.
  t.failed += trace.size() - replies.size();
  return t;
}

std::string digest_of(const std::vector<std::string>& lines) {
  Digest digest;
  for (const std::string& line : lines) digest.add_line(line);
  return digest.hex();
}

/// The trace replayed in process, dispatching each line the way
/// serve::Daemon does, in lockstep with a socket replay: each line goes to
/// a fresh daemon first and is handled in process right after its reply, so
/// the client and in-process times of a line are taken moments apart and
/// host speed drift cancels out of their difference. Traced replays time
/// every layer call and record RequestRecord provenance.
struct InprocRun {
  SocketRun socket;
  std::vector<std::string> replies;
  Counters counters;
  /// In-process time only: the sum over lines, daemon round trips excluded.
  double wall_s = 0.0;
  std::uint64_t admitted = 0;
  std::uint64_t released = 0;
  // Traced only. Per arrive line:
  std::vector<double> parse_us;
  std::vector<double> process_us;
  std::vector<double> reply_us;
  std::vector<std::shared_ptr<const core::RequestRecord>> records;
  // Per released depart:
  std::vector<double> release_us;
  std::vector<Span> spans;
  Clock::time_point origin;
};

InprocRun lockstep_replay(const OnlineWorkload& w, const topo::Topology& topo,
                          const std::vector<std::string>& trace, bool traced,
                          const DaemonRunner& runner) {
  InprocRun run;
  std::unique_ptr<core::OnlineAlgorithm> algorithm = build_algorithm(w, topo);
  algorithm->set_record_provenance(traced);
  std::map<std::uint64_t, nfv::Footprint> active;
  std::set<std::uint64_t> rejected_pending;
  std::uint64_t bytes = 0;
  if (traced) run.spans.reserve(trace.size() * 4);
  run.replies.reserve(trace.size());
  auto stamp = [traced] { return traced ? Clock::now() : Clock::time_point{}; };

  auto handle = [&](std::size_t i) {
    const std::string& line = trace[i];
    const serve::LinePosition position{bytes, i + 1};
    bytes += line.size() + 1;
    const Clock::time_point t0 = stamp();
    serve::ParseFailure failure;
    const std::optional<serve::Command> command =
        serve::parse_command(line, position, topo.graph, failure);
    const Clock::time_point t1 = stamp();
    if (traced) run.spans.push_back(Span{"serve.parse_us", i, t0, t1});
    if (!command.has_value()) {
      run.replies.push_back(failure.reply);
      return;
    }
    const std::uint64_t id = command->request.id;
    std::string reply;
    if (command->kind == serve::CommandKind::kArrive) {
      if (active.count(id) != 0 || rejected_pending.count(id) != 0) {
        run.replies.push_back(serve::error_reply(
            "invalid", "duplicate arrive id " + std::to_string(id), position));
        return;
      }
      core::AdmissionDecision decision;
      const Clock::time_point t2 = stamp();
      try {
        decision = algorithm->process(command->request);
      } catch (const std::exception& e) {
        run.replies.push_back(serve::error_reply("invalid", e.what(), position));
        return;
      }
      const Clock::time_point t3 = stamp();
      if (decision.admitted) {
        active[id] = decision.footprint;
        ++run.admitted;
      } else {
        rejected_pending.insert(id);
      }
      const Clock::time_point t4 = stamp();
      reply = serve::arrive_reply(id, decision, active.size());
      const Clock::time_point t5 = stamp();
      if (traced) {
        run.parse_us.push_back(us_between(t0, t1));
        run.process_us.push_back(us_between(t2, t3));
        run.reply_us.push_back(us_between(t4, t5));
        run.records.push_back(decision.record);
        run.spans.push_back(Span{"core.process_us", i, t2, t3});
        run.spans.push_back(Span{"serve.reply_us", i, t4, t5});
        run.spans.push_back(Span{"request", i, t0, t5});
      }
    } else if (command->kind == serve::CommandKind::kDepart) {
      const auto it = active.find(id);
      const Clock::time_point t2 = stamp();
      Clock::time_point t3 = t2;
      if (it != active.end()) {
        algorithm->release(it->second);
        t3 = stamp();
        active.erase(it);
        ++run.released;
        reply = serve::depart_reply(id, /*released=*/true, active.size());
        if (traced) {
          run.release_us.push_back(us_between(t2, t3));
          run.spans.push_back(Span{"core.release_us", i, t2, t3});
        }
      } else if (rejected_pending.erase(id) != 0) {
        reply = serve::depart_reply(id, /*released=*/false, active.size());
      } else {
        reply = serve::error_reply(
            "invalid",
            "depart for unknown or already-departed id " + std::to_string(id),
            position);
      }
      if (traced) {
        const Clock::time_point t5 = stamp();
        run.spans.push_back(Span{"serve.reply_us", i, t3, t5});
        run.spans.push_back(Span{"request", i, t0, t5});
      }
    } else {
      reply = serve::error_reply("invalid", "unexpected command in trace",
                                 position);
    }
    run.replies.push_back(std::move(reply));
  };

  const Counters before = counters_now();
  run.origin = Clock::now();
  run.socket = runner.replay(trace, [&](std::size_t i, pid_t) {
    const Clock::time_point begin = Clock::now();
    handle(i);
    run.wall_s += s_between(begin, Clock::now());
  });
  run.counters = counters_delta(before, counters_now());
  return run;
}

void run_untraced(const OnlineWorkload& w, const RunOptions& options,
                  const std::vector<std::string>& trace, RunResult& result) {
  const DaemonRunner runner(w, options, "replay");
  const DaemonRunner setup_runner(w, options, "setup");
  std::vector<double> setup_s;
  BestTimes best(trace.size());
  double peak_rss_mb = 0.0;
  std::string digest;
  std::optional<Tally> first;
  auto sample_setup = [&] {
    const SocketRun run = setup_runner.replay({});
    if (!run.error.empty()) {
      result.fail("setup-only daemon: " + run.error);
    } else {
      setup_s.push_back(run.setup_s);
    }
  };
  // Between lines, while the replay's daemon waits for the next one, a
  // setup-only daemon is started and drained every kSetupEveryS seconds.
  // Every kLinesPerCpu lines the client and the daemon move to the next
  // CPU, and each replay starts one CPU further on (see BestTimes).
  std::size_t replays = 0;
  Clock::time_point last_setup = Clock::now();
  auto between_lines = [&](std::size_t i, pid_t daemon) {
    if ((i + 1) % kLinesPerCpu == 0) {
      move_to_cpu((i + 1) / kLinesPerCpu + replays, daemon);
    }
    if (!result.correct || s_between(last_setup, Clock::now()) < kSetupEveryS) {
      return;
    }
    sample_setup();
    last_setup = Clock::now();
  };

  // Replays continue while one more still fits in the run's time, and there
  // are at least two.
  const Clock::time_point start = Clock::now();
  while (replays < 2 || s_between(start, Clock::now()) * (replays + 1) /
                                replays <= options.seconds) {
    move_to_cpu(replays);
    SocketRun run = runner.replay(trace, between_lines);
    ++replays;
    const Tally t = tally(trace, run.replies);
    result.attempted += trace.size();
    result.failed += t.failed;
    if (!run.error.empty()) {
      result.fail("replay " + std::to_string(replays) + ": " + run.error);
      break;
    }
    const std::string d = digest_of(run.replies);
    if (digest.empty()) digest = d;
    if (d != digest) {
      result.fail("reply digest of replay " + std::to_string(replays) + " is " +
                  d + ", replay 1 gave " + digest);
    }
    if (!first) first = t;
    setup_s.push_back(run.setup_s);
    for (std::size_t i = 0; i < trace.size(); ++i) best.add(i, run.line_us[i]);
    peak_rss_mb = std::max(peak_rss_mb, run.peak_rss_mb);
  }
  while (result.correct && setup_s.size() < kMinSetupSamples) sample_setup();
  setup_runner.cleanup();
  runner.cleanup();
  if (!digest.empty()) {
    check_recorded_digest(options, digest_of(trace), digest, result);
  }
  if (!first) first = Tally{};
  if (result.failed != 0) {
    result.fail(std::to_string(result.failed) + " failed lines");
  }

  result.note("replays: " + std::to_string(replays) + " of " +
              std::to_string(trace.size()) + " lines, reply digest " + digest +
              "; rate and latency from each line's best replay");
  result.note("failed_ratio: " +
              std::to_string(ratio(static_cast<double>(result.failed),
                                   static_cast<double>(result.attempted))));
  const std::vector<double> arrive_us =
      best.best_us([&](std::size_t i) { return is_arrive_line(trace[i]); });
  const std::size_t samples = arrive_us.size();
  result.add("setup_s", quantile(setup_s, 0.5), "s", setup_s.size());
  result.add("req_per_s", ratio(static_cast<double>(samples), best.total_s()),
             "1/s", samples);
  result.add("latency_p50_us", quantile(arrive_us, 0.5), "us", samples);
  result.add("latency_p99_us", quantile(arrive_us, 0.99), "us", samples);
  result.add("admit_ratio",
             ratio(static_cast<double>(first->admitted),
                   static_cast<double>(first->arrives)),
             "ratio", first->arrives);
  result.add("mean_cost",
             ratio(first->cost_sum, static_cast<double>(first->admitted)),
             "cost", first->admitted);
  result.add("peak_rss_mb", peak_rss_mb, "MiB", replays);
}

void run_traced(const OnlineWorkload& w, const RunOptions& options,
                const std::vector<std::string>& trace,
                const topo::Topology& topo, RunResult& result) {
  const DaemonRunner runner(w, options, "replay");
  util::ThreadPool::set_global_threads(1);  // the daemon runs --threads 1
  // Untraced replays on both sides of the traced one, so process warm-up
  // does not bias the trace-overhead figure.
  const InprocRun plain = lockstep_replay(w, topo, trace, /*traced=*/false, runner);
  const InprocRun traced = lockstep_replay(w, topo, trace, /*traced=*/true, runner);
  const InprocRun plain2 = lockstep_replay(w, topo, trace, /*traced=*/false, runner);
  runner.cleanup();
  const SocketRun& socket = traced.socket;
  result.attempted += 6 * trace.size();
  for (const InprocRun* run : {&plain, &traced, &plain2}) {
    if (!run->socket.error.empty()) {
      result.failed += trace.size() - run->socket.replies.size();
      result.fail("socket replay: " + run->socket.error);
      return;
    }
    result.failed += tally(trace, run->socket.replies).failed +
                     tally(trace, run->replies).failed;
  }
  const Tally t = tally(trace, traced.replies);

  // Output checks: one decision stream over every socket replay and in
  // process, and the same work counts in every in-process replay.
  const std::string digest = digest_of(socket.replies);
  for (const InprocRun* run : {&plain, &traced, &plain2}) {
    if (run->socket.replies != socket.replies) {
      result.fail("socket reply digest " + digest_of(run->socket.replies) +
                  " differs from the traced socket replay's " + digest);
    }
    if (run->replies != socket.replies) {
      result.fail("in-process reply digest " + digest_of(run->replies) +
                  " differs from the socket replay's " + digest);
    }
  }
  check_counts_equal(plain.counters, traced.counters, "in-process replays",
                     result);
  check_counts_equal(plain.counters, plain2.counters, "in-process replays",
                     result);
  check_recorded_digest(options, digest_of(trace), digest, result);
  if (result.failed != 0) {
    result.fail(std::to_string(result.failed) + " failed lines");
  }

  const Counters& c = traced.counters;
  const double arrives = static_cast<double>(t.arrives);
  const double departs = static_cast<double>(traced.released);
  const double admitted = static_cast<double>(traced.admitted);
  auto per = [&](std::string_view name, double base) {
    return ratio(static_cast<double>(counter(c, name)), base);
  };
  const std::size_t n = traced.process_us.size();
  if (n == 0 || socket.arrive_us.size() != n || traced.records.size() != n ||
      std::count(traced.records.begin(), traced.records.end(), nullptr) != 0) {
    result.fail("arrive lines lack timings or a RequestRecord (built with NFVM_OBS=0?)");
    return;
  }

  // The ledger decomposes the median request: layer times are means over
  // the arrive lines whose client latency lies in the middle decile, and
  // serve.transport_us closes the gap to the client p50 (the band's own mean
  // client latency is within a few µs of it). Layer means over all lines do
  // not fit under the p50: a skewed `process` puts its mean above the client
  // median. The band is chosen by timing, so work counts use every line.
  std::vector<std::size_t> band(n);
  std::iota(band.begin(), band.end(), std::size_t{0});
  std::sort(band.begin(), band.end(), [&](std::size_t a, std::size_t b) {
    return socket.arrive_us[a] < socket.arrive_us[b];
  });
  band = {band.begin() + static_cast<std::ptrdiff_t>(n * 45 / 100),
          band.begin() + static_cast<std::ptrdiff_t>(n * 55 / 100)};
  auto band_mean = [&](auto&& value) {
    double sum = 0.0;
    for (const std::size_t i : band) sum += value(i);
    return sum / static_cast<double>(band.size());
  };
  auto record = [&](std::size_t i) -> const core::RequestRecord& {
    return *traced.records[i];
  };
  const double client_p50 = quantile(socket.arrive_us, 0.5);
  const double parse = band_mean([&](std::size_t i) { return traced.parse_us[i]; });
  const double process = band_mean([&](std::size_t i) { return traced.process_us[i]; });
  const double reply = band_mean([&](std::size_t i) { return traced.reply_us[i]; });
  const double transport = client_p50 - parse - process - reply;
  const double classify = band_mean([&](std::size_t i) { return record(i).classify_us; });
  const double closure = band_mean([&](std::size_t i) { return record(i).closure_us; });
  const double eval = band_mean([&](std::size_t i) { return record(i).eval_us; });
  const double realize = band_mean([&](std::size_t i) { return record(i).realize_us; });
  const double patch = band_mean([&](std::size_t i) { return record(i).view_patch_us; });
  const double phases = classify + closure + eval + realize + patch;
  const double unaccounted = process - phases;
  double evaluated = 0.0;
  for (const auto& r : traced.records) {
    evaluated += static_cast<double>(r->servers_evaluated);
  }

  result.note("ledger: client arrive p50 " + std::to_string(client_p50) +
              " us = parse " + std::to_string(parse) + " + process " +
              std::to_string(process) + " + reply " + std::to_string(reply) +
              " + transport " + std::to_string(transport) +
              " (layers: means over the " + std::to_string(band.size()) +
              " middle-decile arrives, whose mean client latency is " +
              std::to_string(band_mean([&](std::size_t i) { return socket.arrive_us[i]; })) +
              " us)");
  result.note("ledger: core.process_us " + std::to_string(process) +
              " us = phases " + std::to_string(phases) + " + unaccounted " +
              std::to_string(unaccounted) + " (unaccounted share " +
              std::to_string(100.0 * ratio(unaccounted, process)) + "%)");
  result.note("reply digest " + digest + ", " +
              std::to_string(t.arrives) + " arrives, " +
              std::to_string(traced.released) + " releases");

  result.add("serve.parse_us", parse, "us", band.size());
  result.add("serve.reply_us", reply, "us", band.size());
  result.add("serve.transport_us", transport, "us", band.size());
  result.add("core.process_us", process, "us", band.size());
  result.add("core.release_us", mean(traced.release_us), "us",
             traced.release_us.size());
  result.add("core.classify_us", classify, "us", band.size());
  result.add("core.closure_us", closure, "us", band.size());
  result.add("core.eval_us", eval, "us", band.size());
  result.add("core.realize_us", realize, "us", band.size());
  result.add("core.view_patch_us", patch, "us", band.size());
  result.add("core.unaccounted_us", unaccounted, "us", band.size());
  result.add("core.servers_evaluated", evaluated / static_cast<double>(n), "count", n);
  result.add("core.online.view_rebuilds_per_depart",
             per("core.online.view_rebuilds", departs), "count");
  result.add("core.online.view_patches_per_admit",
             per("core.online.view_patches", admitted), "count");
  result.add("core.online.view_policy_incremental_share",
             ratio(static_cast<double>(counter(c, "core.online.view_policy_incremental")),
                   static_cast<double>(counter(c, "core.online.view_policy_incremental") +
                                       counter(c, "core.online.view_policy_rebuild"))),
             "ratio");
  result.add("graph.dijkstra.runs", per("graph.dijkstra.runs", arrives), "count");
  result.add("graph.dijkstra.edges_relaxed",
             per("graph.dijkstra.edges_relaxed", arrives), "count");
  result.add("graph.dijkstra.edges_scanned",
             per("graph.dijkstra.edges_scanned", arrives), "count");
  result.add("graph.dijkstra.dial_share",
             ratio(static_cast<double>(counter(c, "graph.dijkstra.dial_runs")),
                   static_cast<double>(counter(c, "graph.dijkstra.runs"))),
             "ratio");
  result.add("graph.spcache.hit_ratio",
             ratio(static_cast<double>(counter(c, "graph.spcache.hits")),
                   static_cast<double>(counter(c, "graph.spcache.hits") +
                                       counter(c, "graph.spcache.misses"))),
             "ratio");
  result.add("graph.spcache.keyed_evictions_per_depart",
             per("graph.spcache.keyed_evictions", departs), "count");
  result.add("graph.steiner.kmb.runs", per("graph.steiner.kmb.runs", arrives),
             "count");
  result.add("graph.steiner.kmb_finish.runs",
             per("graph.steiner.kmb_finish.runs", arrives), "count");
  // Offline-only layers: Appro_Multi does not run on the online path.
  for (const char* name :
       {"core.appro_multi.context_us", "core.appro_multi.evaluate_us",
        "core.appro_multi.realize_us", "core.shared_closure.oracle_us"}) {
    result.add(name, 0.0, "us");
  }
  result.add("core.appro_multi.combinations_explored", 0.0, "count");
  result.add("core.appro_multi.prune_ratio", 0.0, "ratio");
  result.add("pool.parallel_regions", per("pool.parallel_regions", arrives), "count");
  result.add("pool.tasks", per("pool.tasks", arrives), "count");
  const double plain_wall = 0.5 * (plain.wall_s + plain2.wall_s);
  result.add("bench.trace_overhead_pct",
             100.0 * ratio(traced.wall_s - plain_wall, plain_wall), "%");

  const std::string spans_path = options.work_dir + "/spans-" + w.name + "-" +
                                 std::to_string(options.seed) + ".jsonl";
  if (write_spans(spans_path, traced.spans, traced.origin)) {
    result.note("spans: " + spans_path);
  }
}

}  // namespace

bool is_online_workload(std::string_view name) {
  return find_workload(name) != nullptr;
}

RunResult run_online(const RunOptions& options) {
  RunResult result;
  const OnlineWorkload& w = *find_workload(options.workload);
  const topo::Topology topo = build_topology(w);
  const std::vector<std::string> trace = make_trace(w, topo, options.seed);
  result.note(std::string("workload ") + w.name + ": " + w.algorithm + " on " +
              topo.name + " (" + std::to_string(topo.num_switches()) +
              " switches), topology seed " + std::to_string(kTopologySeed) +
              ", trace seed " + std::to_string(options.seed) + ", " +
              std::to_string(w.arrivals) + " arrivals, closed loop, 1 connection");
  if (options.trace) {
    run_traced(w, options, trace, topo, result);
  } else {
    run_untraced(w, options, trace, result);
  }
  return result;
}

}  // namespace perfbench
