// nfvm_serve - crash-safe online-admission daemon.
//
//   nfvm-serve [options]
//     the network and engine flags of tools/cli_setup.h (the network ones as
//     the trace generator's), with --algorithm online_cp by default
//     --socket <path>        serve a Unix stream socket instead of stdin, one
//                            connection at a time; engine state persists
//     --snapshot <file>      snapshot target (atomic tmp+fsync+rename) for
//                            {"cmd":"snapshot"} and the final drain snapshot
//     --snapshot-every <n>   also snapshot every n processed lines
//     --restore <file>       resume from a snapshot; the reply stream goes on
//                            byte-identical to an uninterrupted run
//     --max-inflight <n>     queue capacity (default 1024); a full queue
//                            blocks the reader (backpressure)
//     --request-deadline-ms <x>  shed arrives queued longer than x ms
//                            (reject_cause overload); 0, the default, disables
//                            shedding and keeps runs byte-reproducible
//     --fault-plan <file>    deterministic fault injection (docs/serving.md)
//
// Protocol: one JSON command per input line, exactly one JSON reply per line
// on stdout (or the socket) - including structured {"ok":false,...} replies
// with byte offsets for malformed lines. stdout carries nothing but replies;
// diagnostics and the end-of-run summary go to stderr. SIGTERM/SIGINT drain
// gracefully: the in-flight line finishes, a final snapshot and the summary
// are written, exit status 0. Full contract: docs/serving.md.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "cli_setup.h"
#include "obs/event_log.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "serve/daemon.h"
#include "serve/fault_plan.h"
#include "serve/snapshot.h"
#include "util/thread_pool.h"

namespace {

using namespace nfvm;

const std::string kUsage =
    std::string("usage: nfvm-serve [--topology T] [--nodes N] [--seed S] [--algorithm A]\n"
                "                  [--max-delay MS] [--socket PATH]\n"
                "                  [--snapshot FILE] [--snapshot-every N] [--restore FILE]\n"
                "                  [--max-inflight N] [--request-deadline-ms X]\n"
                "                  [--fault-plan FILE] [--threads N]\n"
                "                  [--metrics-json FILE] [--log-level ") +
    cli::kLogLevels + "]\n  topologies: " + cli::kTopologies +
    "\n  algorithms: " + cli::kAlgorithms + "\n";

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

struct Options {
  cli::NetworkFlags net;
  cli::EngineFlags engine{.algorithm = "online_cp"};
  std::string socket_path;
  sockaddr_un socket_address{};  // built from socket_path at parse time
  std::string snapshot_path;
  std::size_t snapshot_every = 0;
  std::string restore_path;
  std::size_t max_inflight = 1024;
  double request_deadline_ms = 0.0;
  std::string fault_plan_path;
  /// Loaded eagerly from restore_path / fault_plan_path so a missing,
  /// truncated, or malformed file fails at startup, not after the engine
  /// has been serving for an hour.
  std::optional<serve::Snapshot> restore_snapshot;
  serve::FaultPlan fault_plan;
};

/// Every flag value is proven usable here - queue bounds, writable snapshot
/// target, loadable restore snapshot and fault plan, a bindable socket
/// directory - so a typo can never surface as a mid-serve failure with live
/// clients attached. Single values were checked as they were parsed.
void validate_options(Options& opts) {
  if (opts.max_inflight == 0) {
    cli::usage("--max-inflight must be positive (a zero-capacity queue can never "
               "admit a line)");
  }
  if (opts.request_deadline_ms < 0.0) {
    cli::usage("--request-deadline-ms must be non-negative (0 disables shedding)");
  }
  if (opts.snapshot_every > 0 && opts.snapshot_path.empty()) {
    cli::usage("--snapshot-every requires --snapshot (a path to write to)");
  }
  cli::validate_writable("--snapshot", opts.snapshot_path);
  cli::validate_writable("--metrics-json", opts.engine.metrics_json);
  if (!opts.socket_path.empty()) {
    opts.socket_address = cli::unix_address("--socket", opts.socket_path);
    const auto parent = std::filesystem::path(opts.socket_path).parent_path();
    if (!parent.empty() && !std::filesystem::is_directory(parent)) {
      cli::usage("--socket: directory \"" + parent.string() + "\" does not exist");
    }
  }
  if (!opts.restore_path.empty()) {
    try {
      opts.restore_snapshot = serve::load_snapshot(opts.restore_path);
    } catch (const std::exception& e) {
      cli::usage(std::string("--restore: ") + e.what());
    }
  }
  if (!opts.fault_plan_path.empty()) {
    const std::string text = cli::read_file("--fault-plan", opts.fault_plan_path);
    try {
      opts.fault_plan = serve::FaultPlan::parse(text);
    } catch (const std::exception& e) {
      cli::usage("--fault-plan " + opts.fault_plan_path + ": " + e.what());
    }
  }
}

Options parse_args(int argc, char** argv) {
  Options opts;
  cli::Args args(argc, argv, kUsage);
  while (args.next()) {
    if (cli::parse_flag(args, opts.net) ||
        cli::parse_flag(args, opts.engine, cli::kAlgorithms)) {
      continue;
    }
    const std::string& arg = args.flag();
    if (arg == "--socket") opts.socket_path = args.value();
    else if (arg == "--snapshot") opts.snapshot_path = args.value();
    else if (arg == "--snapshot-every") opts.snapshot_every = args.count();
    else if (arg == "--restore") opts.restore_path = args.value();
    else if (arg == "--max-inflight") opts.max_inflight = args.count();
    else if (arg == "--request-deadline-ms") opts.request_deadline_ms = args.real();
    else if (arg == "--fault-plan") opts.fault_plan_path = args.value();
    else cli::usage("unknown option " + arg);
  }
  validate_options(opts);
  return opts;
}

/// The configuration echo stamped into snapshots and compared on restore:
/// exactly the knobs that determine the engine's decision stream. Queue
/// sizing, deadlines and fault plans are deliberately absent - they may
/// legitimately differ across a crash/restore boundary.
std::map<std::string, std::string> snapshot_config(const Options& opts) {
  std::map<std::string, std::string> config;
  config["topology"] = opts.net.topology;
  config["nodes"] = std::to_string(opts.net.nodes);
  config["seed"] = std::to_string(opts.net.seed);
  // Only whether delays were assigned matters (it changes the topology RNG
  // consumption); the per-request bound rides in the trace itself.
  config["assign_delays"] = opts.net.max_delay_ms > 0.0 ? "true" : "false";
  return config;
}

/// Unbuffered std::streambuf over a connected socket fd, so Daemon::run can
/// keep its per-line flush discipline on sockets too.
class FdStreambuf final : public std::streambuf {
 public:
  explicit FdStreambuf(int fd) : fd_(fd) {}

 protected:
  int overflow(int ch) override {
    if (ch == traits_type::eof()) return 0;
    const char c = static_cast<char>(ch);
    return write_all(&c, 1) ? ch : traits_type::eof();
  }
  std::streamsize xsputn(const char* data, std::streamsize count) override {
    return write_all(data, count) ? count : 0;
  }

 private:
  bool write_all(const char* data, std::streamsize count) {
    std::streamsize done = 0;
    while (done < count) {
      const ssize_t n = ::write(fd_, data + done, static_cast<std::size_t>(count - done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;  // peer gone (EPIPE); the read side will see EOF
      }
      done += n;
    }
    return true;
  }
  int fd_;
};

void emit_summary(const serve::DaemonStats& stats) {
  obs::JsonLine line;
  line.field("event", "serve_exit")
      .field("stop_cause", stats.stop_cause)
      .field("lines", stats.counters.lines)
      .field("admitted", stats.counters.admitted)
      .field("rejected", stats.counters.rejected)
      .field("overload_rejects", stats.counters.overload_rejects)
      .field("departed", stats.counters.departed)
      .field("parse_errors", stats.counters.parse_errors)
      .field("invalid_requests", stats.counters.invalid_requests)
      .field("snapshots_written", stats.counters.snapshots_written)
      .field("active", stats.active)
      .field("wall_s", stats.wall_seconds)
      .field("p50_us", stats.p50_us)
      .field("p90_us", stats.p90_us)
      .field("p99_us", stats.p99_us);
  std::cerr << line.str() << "\n";
}

/// Accepts connections one at a time until a drain, a signal, or an accept
/// failure. Engine and daemon state (admissions, counters, snapshots) persist
/// across connections.
int serve_socket(const Options& opts, serve::Daemon& daemon) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) cli::usage(std::string("--socket: socket: ") + std::strerror(errno));
  ::unlink(opts.socket_path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&opts.socket_address),
             sizeof(opts.socket_address)) != 0 ||
      ::listen(listener, 1) != 0) {
    cli::usage("--socket: cannot bind/listen on \"" + opts.socket_path + "\": " +
               std::strerror(errno));
  }
  obs::log_info("listening on " + opts.socket_path);

  serve::DaemonStats stats;
  for (;;) {
    if (g_stop.load(std::memory_order_relaxed)) {
      stats.stop_cause = "signal";
      break;
    }
    pollfd pfd{listener, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      break;
    }
    serve::FdLineSource source(conn, &g_stop);
    FdStreambuf buf(conn);
    std::ostream out(&buf);
    stats = daemon.run(source, out);
    ::close(conn);
    if (stats.stop_cause != "eof") break;  // drain command or signal
  }
  ::close(listener);
  ::unlink(opts.socket_path.c_str());
  emit_summary(stats);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);
  if (opts.engine.threads > 0) util::ThreadPool::set_global_threads(opts.engine.threads);

  struct sigaction action{};
  action.sa_handler = on_signal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  util::Rng rng(opts.net.seed);
  topo::Topology topo = cli::build_topology(opts.net, rng);
  // stdout carries nothing but protocol replies; diagnostics go to stderr.
  std::cerr << "# nfvm-serve: " << topo.name << ", " << topo.num_switches()
            << " switches, algorithm " << opts.engine.algorithm << "\n";

  auto algorithm = cli::build_algorithm(opts.engine.algorithm, topo);
  serve::DaemonOptions daemon_opts;
  daemon_opts.max_inflight = opts.max_inflight;
  daemon_opts.request_deadline_ms = opts.request_deadline_ms;
  daemon_opts.snapshot_path = opts.snapshot_path;
  daemon_opts.snapshot_every = opts.snapshot_every;
  daemon_opts.fault_plan = opts.fault_plan;
  daemon_opts.stop = &g_stop;
  serve::Daemon daemon(*algorithm, snapshot_config(opts), daemon_opts);
  if (opts.restore_snapshot.has_value()) {
    try {
      daemon.restore(*opts.restore_snapshot);
    } catch (const std::exception& e) {
      cli::usage(std::string("--restore: ") + e.what());
    }
    std::cerr << "# restored from " << opts.restore_path << " (seq "
              << opts.restore_snapshot->seq << ", "
              << opts.restore_snapshot->lines_consumed
              << " lines already consumed)\n";
  }

  int status = 0;
  if (!opts.socket_path.empty()) {
    status = serve_socket(opts, daemon);
  } else {
    serve::FdLineSource source(STDIN_FILENO, &g_stop);
    const serve::DaemonStats stats = daemon.run(source, std::cout);
    emit_summary(stats);
  }

  if (!opts.engine.metrics_json.empty()) {
    std::ofstream out(opts.engine.metrics_json);
    if (!out) cli::usage("cannot open " + opts.engine.metrics_json);
    obs::Registry::global().write_json(out);
  }
  return status;
}
