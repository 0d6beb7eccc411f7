// nfvm_serve_client - trace generator and replay client for nfvm-serve.
//
//   nfvm-serve-client [options]
//     the network and workload flags of tools/cli_setup.h, with --requests
//     1000 by default; the network ones MUST match the daemon's so request
//     vertices are valid
//     --snapshot-cmd-every <n>  interleave a {"cmd":"snapshot"} line after
//                            every n arrivals (0 = none)
//     --final-stats          end the trace with {"cmd":"stats"} (off for
//                            byte-equivalence gates: its reply carries
//                            timing quantiles)
//     --out <file>           write the trace to a file (default stdout)
//     --input <file>         replay an existing trace file instead of
//                            generating one (requires --connect)
//     --connect <socket>     replay the trace over a daemon's Unix socket and
//                            print the reply stream to stdout
//
// Without --connect the tool emits the trace (arrive/depart command lines in
// simulated-time order, a depart for every arrival) for piping into
// `nfvm-serve` or saving as a fixture. With --connect it streams the trace to
// a live daemon and relays the replies, exiting non-zero if the daemon hangs
// up before answering every line it consumed.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "cli_setup.h"
#include "serve/trace_gen.h"

namespace {

using namespace nfvm;

const std::string kUsage =
    std::string("usage: nfvm-serve-client [--topology T] [--nodes N] [--seed S]\n"
                "                         [--requests R] [--arrival-rate X] [--mean-duration X]\n"
                "                         [--diurnal-amplitude A] [--diurnal-period P]\n"
                "                         [--dest-ratio X] [--max-delay MS]\n"
                "                         [--snapshot-cmd-every N] [--final-stats]\n"
                "                         [--out FILE] [--input FILE] [--connect SOCKET]\n"
                "  topologies: ") +
    cli::kTopologies + "\n";

struct Options {
  cli::NetworkFlags net;
  cli::WorkloadFlags work{.requests = 1000};
  std::size_t snapshot_cmd_every = 0;
  bool final_stats = false;
  std::string out_path;
  std::string input_path;
  std::string input;  // the --input trace, read eagerly
  std::string connect_path;
};

void validate_options(Options& opts) {
  if (!opts.input_path.empty()) {
    if (opts.connect_path.empty()) {
      cli::usage("--input replays an existing trace; it needs --connect "
                 "(to emit a trace, use --out)");
    }
    opts.input = cli::read_file("--input", opts.input_path);
  }
  if (!opts.out_path.empty() && !opts.connect_path.empty()) {
    cli::usage("--out and --connect are mutually exclusive (replies go to stdout)");
  }
}

Options parse_args(int argc, char** argv) {
  Options opts;
  cli::Args args(argc, argv, kUsage);
  while (args.next()) {
    if (cli::parse_flag(args, opts.net) || cli::parse_flag(args, opts.work)) continue;
    const std::string& arg = args.flag();
    if (arg == "--snapshot-cmd-every") opts.snapshot_cmd_every = args.count();
    else if (arg == "--final-stats") opts.final_stats = true;
    else if (arg == "--out") opts.out_path = args.value();
    else if (arg == "--input") opts.input_path = args.value();
    else if (arg == "--connect") opts.connect_path = args.value();
    else cli::usage("unknown option " + arg);
  }
  validate_options(opts);
  return opts;
}

std::string make_trace(const Options& opts) {
  // nfvm-serve builds its network from the same flags through
  // cli::build_topology, so generated vertex ids are valid on the daemon side.
  util::Rng rng(opts.net.seed);
  const topo::Topology topo = cli::build_topology(opts.net, rng);

  serve::TraceGenOptions trace;
  trace.num_requests = opts.work.requests;
  trace.arrival_rate = opts.work.arrival_rate;
  trace.mean_duration = opts.work.mean_duration;
  trace.diurnal_amplitude = opts.work.diurnal_amplitude;
  trace.diurnal_period = opts.work.diurnal_period;
  trace.max_delay_ms = opts.net.max_delay_ms;
  trace.snapshot_every = opts.snapshot_cmd_every;
  trace.final_stats = opts.final_stats;
  trace.request_gen = opts.work.request_gen();
  util::Rng workload(opts.net.seed + 1);
  std::ostringstream out;
  const serve::TraceSummary summary =
      serve::write_serve_trace(out, topo, workload, trace);
  std::cerr << "# trace: " << summary.arrive_lines << " arrive, "
            << summary.depart_lines << " depart, " << summary.snapshot_lines
            << " snapshot, " << summary.total_lines << " lines\n";
  return out.str();
}

/// Streams `trace` to the daemon socket from a writer thread (half-closing
/// when done) while the main thread relays replies to stdout until the
/// daemon hangs up.
int replay(const Options& opts, const std::string& trace) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) cli::usage(std::string("--connect: socket: ") + std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts.connect_path.size() >= sizeof(addr.sun_path)) {
    cli::usage("--connect: path too long for AF_UNIX");
  }
  std::strncpy(addr.sun_path, opts.connect_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    cli::usage("--connect: cannot connect to \"" + opts.connect_path + "\": " +
               std::strerror(errno));
  }

  std::thread writer([&] {
    std::size_t done = 0;
    while (done < trace.size()) {
      const ssize_t n = ::send(fd, trace.data() + done, trace.size() - done,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // daemon gone; the reader will see EOF
      }
      done += static_cast<std::size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);
  });

  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    std::cout.write(chunk, n);
  }
  std::cout.flush();
  writer.join();
  ::close(fd);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);
  ::signal(SIGPIPE, SIG_IGN);

  const std::string trace = opts.input_path.empty() ? make_trace(opts) : opts.input;

  if (!opts.connect_path.empty()) return replay(opts, trace);

  if (opts.out_path.empty()) {
    std::cout << trace;
    std::cout.flush();
    return 0;
  }
  std::ofstream out(opts.out_path, std::ios::binary);
  if (!out) cli::usage("cannot open " + opts.out_path);
  out << trace;
  return 0;
}
