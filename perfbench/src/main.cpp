// perfbench - end-to-end and per-layer benchmark of the nfvm admission paths.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Workloads: cp_waxman400_churn, sp_geant_serve (closed-loop nfvm-serve
// replay) and offline_waxman200_k3 (timed core::appro_multi calls). With
// --trace 0 the run reports the end-to-end metrics, with --trace 1 the
// per-layer ledger. The last stdout line is one JSON object
// {"correct","attempted","failed","metrics"}; the exit status is non-zero
// when an output check failed. See perfbench/NOTES.md.
#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload W --seed N --seconds S --trace 0|1"
               " [--work-dir DIR]\n";
  std::exit(2);
}

perfbench::RunOptions parse_args(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--work-dir") {
        options.work_dir = value;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!perfbench::is_online_workload(options.workload) &&
      !perfbench::is_offline_workload(options.workload)) {
    usage("unknown workload " + options.workload +
          " (cp_waxman400_churn|sp_geant_serve|offline_waxman200_k3)");
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  std::filesystem::create_directories(options.work_dir);
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunOptions options = parse_args(argc, argv);
  // One CPU at a time for everything the run starts (client, daemon
  // threads, pool workers). On a virtual machine an idle vCPU halts, and
  // waking it again waits on the host scheduler: with the closed-loop
  // ping-pong or the pool hand-offs spread over two vCPUs, a busy host
  // doubled the p99 of some runs. On one vCPU some thread is always
  // runnable, so it never halts. Untraced runs move from CPU to CPU as they
  // go (BestTimes).
  const std::string cpus = perfbench::pin_to_one_cpu();
  perfbench::RunResult result =
      perfbench::is_online_workload(options.workload)
          ? perfbench::run_online(options)
          : perfbench::run_offline(options);
  result.note("cpus: " + (cpus.empty() ? std::string("unpinned") : cpus));
  result.print(std::cout);
  return result.correct ? 0 : 1;
}
