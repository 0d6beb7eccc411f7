// nfvm_serve_client - trace generator and replay client for nfvm-serve.
//
//   nfvm-serve-client [options]
//     --topology <waxman|transit-stub|geant|as1755|as4755>   (default waxman)
//     --nodes <n>            switches for generated topologies (default 100)
//     --seed <s>             RNG seed; MUST match the daemon's --seed and
//                            --topology/--nodes so request vertices are valid
//     --requests <r>         arrivals to generate (default 1000)
//     --arrival-rate <x>     Poisson arrival rate (default 1.0)
//     --mean-duration <x>    mean exponential holding time (default 20.0)
//     --diurnal-amplitude <a>  rate modulation in [0,1) (default 0)
//     --diurnal-period <p>   modulation period (default 86400)
//     --dest-ratio <x>       fix Dmax/|V| (default: U[0.05, 0.2])
//     --max-delay <ms>       per-request delay bound (daemon needs the same
//                            flag so link delays exist)
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

struct Options {
  std::string topology = "waxman";
  std::size_t nodes = 100;
  std::uint64_t seed = 1;
  std::size_t requests = 1000;
  double arrival_rate = 1.0;
  double mean_duration = 20.0;
  double diurnal_amplitude = 0.0;
  double diurnal_period = 86'400.0;
  double dest_ratio = 0.0;  // 0 = paper default range
  double max_delay_ms = 0.0;
  std::size_t snapshot_cmd_every = 0;
  bool final_stats = false;
  std::string out_path;
  std::string input_path;
  std::string connect_path;
};

[[noreturn]] void usage(const std::string& error) {
  if (!error.empty()) std::cerr << "error: " << error << "\n";
  std::cerr << "usage: nfvm-serve-client [--topology T] [--nodes N] [--seed S]\n"
               "                         [--requests R] [--arrival-rate X] [--mean-duration X]\n"
               "                         [--diurnal-amplitude A] [--diurnal-period P]\n"
               "                         [--dest-ratio X] [--max-delay MS]\n"
               "                         [--snapshot-cmd-every N] [--final-stats]\n"
               "                         [--out FILE] [--input FILE] [--connect SOCKET]\n"
               "  topologies: " << cli::kTopologies << "\n";
  std::exit(error.empty() ? 0 : 2);
}

void validate_options(const Options& opts) {
  if (!cli::one_of(cli::kTopologies, opts.topology)) {
    usage("--topology must be one of " + std::string(cli::kTopologies) +
          " (got \"" + opts.topology + "\")");
  }
  if (opts.diurnal_amplitude < 0.0 || opts.diurnal_amplitude >= 1.0) {
    usage("--diurnal-amplitude must be in [0, 1)");
  }
  if (!(opts.arrival_rate > 0.0)) usage("--arrival-rate must be positive");
  if (!(opts.mean_duration > 0.0)) usage("--mean-duration must be positive");
  if (!(opts.diurnal_period > 0.0)) usage("--diurnal-period must be positive");
  if (!opts.input_path.empty()) {
    if (opts.connect_path.empty()) {
      usage("--input replays an existing trace; it needs --connect "
            "(to emit a trace, use --out)");
    }
    std::ifstream probe(opts.input_path);
    if (!probe) usage("--input: cannot read \"" + opts.input_path + "\"");
  }
  if (!opts.out_path.empty() && !opts.connect_path.empty()) {
    usage("--out and --connect are mutually exclusive (replies go to stdout)");
  }
}

Options parse_args(int argc, char** argv) {
  Options opts;
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage("");
    else if (arg == "--topology") opts.topology = need_value(i);
    else if (arg == "--nodes") opts.nodes = std::stoul(need_value(i));
    else if (arg == "--seed") opts.seed = std::stoull(need_value(i));
    else if (arg == "--requests") opts.requests = std::stoul(need_value(i));
    else if (arg == "--arrival-rate") opts.arrival_rate = std::stod(need_value(i));
    else if (arg == "--mean-duration") opts.mean_duration = std::stod(need_value(i));
    else if (arg == "--diurnal-amplitude") opts.diurnal_amplitude = std::stod(need_value(i));
    else if (arg == "--diurnal-period") opts.diurnal_period = std::stod(need_value(i));
    else if (arg == "--dest-ratio") opts.dest_ratio = std::stod(need_value(i));
    else if (arg == "--max-delay") opts.max_delay_ms = std::stod(need_value(i));
    else if (arg == "--snapshot-cmd-every") opts.snapshot_cmd_every = std::stoul(need_value(i));
    else if (arg == "--final-stats") opts.final_stats = true;
    else if (arg == "--out") opts.out_path = need_value(i);
    else if (arg == "--input") opts.input_path = need_value(i);
    else if (arg == "--connect") opts.connect_path = need_value(i);
    else usage("unknown option " + arg);
  }
  validate_options(opts);
  return opts;
}

std::string make_trace(const Options& opts) {
  // Mirror nfvm-serve's topology construction exactly (including the delay
  // assignment draw) so generated vertex ids are valid on the daemon side.
  util::Rng rng(opts.seed);
  topo::Topology topo = cli::build_topology(opts.topology, opts.nodes, rng);
  if (opts.max_delay_ms > 0) topo::assign_delays(topo, rng);

  serve::TraceGenOptions trace;
  trace.num_requests = opts.requests;
  trace.arrival_rate = opts.arrival_rate;
  trace.mean_duration = opts.mean_duration;
  trace.diurnal_amplitude = opts.diurnal_amplitude;
  trace.diurnal_period = opts.diurnal_period;
  trace.max_delay_ms = opts.max_delay_ms;
  trace.snapshot_every = opts.snapshot_cmd_every;
  trace.final_stats = opts.final_stats;
  if (opts.dest_ratio > 0) {
    trace.request_gen.min_dest_ratio = opts.dest_ratio;
    trace.request_gen.max_dest_ratio = opts.dest_ratio;
  }
  util::Rng workload(opts.seed + 1);
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
  if (fd < 0) usage(std::string("--connect: socket: ") + std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts.connect_path.size() >= sizeof(addr.sun_path)) {
    usage("--connect: path too long for AF_UNIX");
  }
  std::strncpy(addr.sun_path, opts.connect_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    usage("--connect: cannot connect to \"" + opts.connect_path + "\": " +
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

  std::string trace;
  if (!opts.input_path.empty()) {
    std::ifstream in(opts.input_path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    trace = buffer.str();
  } else {
    trace = make_trace(opts);
  }

  if (!opts.connect_path.empty()) return replay(opts, trace);

  if (opts.out_path.empty()) {
    std::cout << trace;
    std::cout.flush();
    return 0;
  }
  std::ofstream out(opts.out_path, std::ios::binary);
  if (!out) usage("cannot open " + opts.out_path);
  out << trace;
  return 0;
}
