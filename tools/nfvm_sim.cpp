// nfvm_sim - command-line online-admission simulator.
//
//   nfvm_sim [options]
//     the network, workload and engine flags of tools/cli_setup.h, with
//     --requests 300 and --algorithm all (the three online algorithms) by
//     default; the arrival flags drive --dynamic and --soak runs, and
//     --metrics-json - writes to stdout
//     --mode <online|offline>                                (default online)
//     --dynamic              Poisson arrivals + exponential holding times
//     --soak <n>             sustained-load run: stream n Poisson arrivals +
//                            departures through one algorithm without
//                            materializing the workload (requires a single
//                            --algorithm); reports sustained req/s and
//                            whole-run latency quantiles
//     --beam-width <m>       offline mode: restrict Appro_Multi to the m most
//                            central eligible servers (0 = exact, default)
//     --dump-topology <file> write the topology in nfvm-topology format
//     --dump-dot <file>      write a Graphviz rendering of the topology
//   Observability (the artifacts are documented in docs/observability.md):
//     --trace <file>         Chrome trace_event JSON of the tracing spans
//     --events <file>        "nfvm-events-v2" JSONL, one line per processed
//                            request with its decision provenance; "-" = stdout
//     --run-dir <dir>        artifact bundle: manifest.json, plus metrics.json,
//                            events.jsonl and trace.json unless redirected
//     --timeseries <file>    "nfvm-timeseries-v2" registry + RSS snapshots
//     --sample-interval-ms <n>  sampler period (default 1000)
//     --slo <file>           SLO spec, evaluated on the sampler tick
//     --slo-out <file>       "nfvm-slo-v1" outcome (default <run-dir>/slo.json,
//                            else stdout)
//
// Prints one metrics row per algorithm; online rows include the
// rejection-cause breakdown (rej_bw/rej_cpu/rej_thr/rej_dly/rej_other).
#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cli_setup.h"
#include "core/alg_one_server.h"
#include "core/appro_multi.h"
#include "core/chain_split.h"
#include "io/dot.h"
#include "io/serialize.h"
#include "obs/event_log.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/request_events.h"
#include "obs/run_info.h"
#include "obs/sampler.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "sim/offline_batch.h"
#include "sim/simulator.h"
#include "sim/soak.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace nfvm;

constexpr const char* kModes = "online|offline";
const std::string kAlgorithms = std::string(cli::kAlgorithms) + "|all";
const std::string kUsage =
    std::string("usage: nfvm_sim [--mode ") + kModes +
    "] [--topology T] [--nodes N] [--seed S]\n"
    "                [--algorithm A] [--requests R] [--dest-ratio X]\n"
    "                [--max-delay MS] [--dynamic]\n"
    "                [--arrival-rate X] [--mean-duration X]\n"
    "                [--soak N] [--diurnal-amplitude A] [--diurnal-period P]\n"
    "                [--threads N] [--beam-width M]\n"
    "                [--dump-topology FILE] [--dump-dot FILE]\n"
    "                [--metrics-json FILE|-] [--trace FILE] [--events FILE|-]\n"
    "                [--run-dir DIR] [--timeseries FILE] [--sample-interval-ms N]\n"
    "                [--slo FILE] [--slo-out FILE]\n"
    "                [--log-level " + cli::kLogLevels + "]\n"
    "  topologies: " + cli::kTopologies + "\n"
    "  algorithms: " + kAlgorithms + "\n"
    "  --beam-width applies to --mode offline only\n";

/// Soak-mode graceful shutdown: SIGINT/SIGTERM stop the arrival loop at the
/// next iteration, so the run still flushes its partial artifacts (manifest,
/// metrics, timeseries) instead of dying with a torn bundle.
std::atomic<bool> g_soak_stop{false};

void on_soak_signal(int) { g_soak_stop.store(true, std::memory_order_relaxed); }

struct Options {
  std::string mode = "online";
  cli::NetworkFlags net;
  cli::WorkloadFlags work{.requests = 300};
  cli::EngineFlags engine{.algorithm = "all"};
  bool dynamic = false;
  /// Offline: Appro_Multi beam width (0 = exact full server pool).
  std::size_t beam_width = 0;
  std::size_t soak = 0;  // 0 = not a soak run
  std::string dump_topology;
  std::string dump_dot;
  std::string trace_file;
  std::string events_file;
  std::string run_dir;
  std::string timeseries_file;
  std::uint64_t sample_interval_ms = 1000;
  std::string slo_file;
  std::string slo_out;
  /// Parsed eagerly from slo_file so a malformed spec fails at startup.
  std::vector<obs::SloSpec> slo_specs;
};

/// Rejects flag combinations and unwritable artifact paths at parse time -
/// a typo in --trace must not surface as an end-of-run failure after
/// topology generation. Single values were checked as they were parsed.
void validate_options(Options& opts) {
  if (opts.sample_interval_ms == 0) {
    cli::usage("--sample-interval-ms must be positive");
  }
  if (opts.beam_width > 0 && opts.mode != "offline") {
    cli::usage("--beam-width only applies to --mode offline");
  }
  if (opts.soak > 0) {
    if (opts.mode != "online") cli::usage("--soak requires --mode online");
    if (opts.engine.algorithm == "all") {
      cli::usage("--soak streams one algorithm's telemetry; pick a single "
                 "--algorithm (e.g. online_cp)");
    }
    if (opts.dynamic) cli::usage("--soak already implies a dynamic workload; drop --dynamic");
  }
  if (!opts.slo_file.empty()) {
    try {
      opts.slo_specs = obs::parse_slo_specs(cli::read_file("--slo", opts.slo_file));
    } catch (const std::invalid_argument& e) {
      cli::usage("--slo " + opts.slo_file + ": " + e.what());
    }
    if (opts.slo_specs.empty()) {
      cli::usage("--slo " + opts.slo_file + ": no objectives found");
    }
  }
  std::string& metrics_json = opts.engine.metrics_json;
  if (!opts.run_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.run_dir, ec);
    if (ec) cli::usage("--run-dir: cannot create \"" + opts.run_dir + "\": " + ec.message());
    // The bundle always carries the standard artifacts; explicit flags
    // override the destination of an individual one.
    const auto in_dir = [&](const char* name) {
      return (std::filesystem::path(opts.run_dir) / name).string();
    };
    if (metrics_json.empty()) metrics_json = in_dir("metrics.json");
    if (opts.events_file.empty()) opts.events_file = in_dir("events.jsonl");
    if (opts.trace_file.empty()) opts.trace_file = in_dir("trace.json");
    if (!opts.slo_file.empty() && opts.slo_out.empty()) {
      opts.slo_out = in_dir("slo.json");
    }
  }
  // Two JSON artifacts interleaved on one stream are unparseable; catch the
  // conflict at parse time, not after the run.
  if (opts.events_file == "-" && metrics_json == "-") {
    cli::usage("--events and --metrics-json cannot both write to stdout (\"-\")");
  }
  // "-" (stdout) is supported for the line- and object-oriented artifacts
  // only; a Chrome trace or dot dump interleaved with the table is useless.
  cli::validate_writable("--dump-topology", opts.dump_topology);
  cli::validate_writable("--dump-dot", opts.dump_dot);
  if (metrics_json != "-") cli::validate_writable("--metrics-json", metrics_json);
  cli::validate_writable("--trace", opts.trace_file);
  if (opts.events_file != "-") cli::validate_writable("--events", opts.events_file);
  cli::validate_writable("--timeseries", opts.timeseries_file);
  cli::validate_writable("--slo-out", opts.slo_out);
}

Options parse_args(int argc, char** argv) {
  Options opts;
  cli::Args args(argc, argv, kUsage);
  while (args.next()) {
    if (cli::parse_flag(args, opts.net) || cli::parse_flag(args, opts.work) ||
        cli::parse_flag(args, opts.engine, kAlgorithms)) {
      continue;
    }
    const std::string& arg = args.flag();
    if (arg == "--mode") opts.mode = args.choice(kModes);
    else if (arg == "--dynamic") opts.dynamic = true;
    else if (arg == "--soak") opts.soak = args.count();
    else if (arg == "--beam-width") opts.beam_width = args.count();
    else if (arg == "--dump-topology") opts.dump_topology = args.value();
    else if (arg == "--dump-dot") opts.dump_dot = args.value();
    else if (arg == "--trace") opts.trace_file = args.value();
    else if (arg == "--events") opts.events_file = args.value();
    else if (arg == "--run-dir") opts.run_dir = args.value();
    else if (arg == "--timeseries") opts.timeseries_file = args.value();
    else if (arg == "--sample-interval-ms") opts.sample_interval_ms = args.count();
    else if (arg == "--slo") opts.slo_file = args.value();
    else if (arg == "--slo-out") opts.slo_out = args.value();
    else cli::usage("unknown option " + arg);
  }
  validate_options(opts);
  return opts;
}

/// The rejection-cause cells of a results row.
template <typename Metrics>
void add_reject_cells(util::Table& table, const Metrics& m) {
  table.add(m.rejected_because(core::RejectCause::kBandwidth))
      .add(m.rejected_because(core::RejectCause::kCompute))
      .add(m.rejected_because(core::RejectCause::kThreshold))
      .add(m.rejected_because(core::RejectCause::kDelay))
      .add(m.rejected_because(core::RejectCause::kOther) +
           m.rejected_because(core::RejectCause::kNone));
}

/// Context for the end-of-run artifact flush: everything write_artifacts
/// needs beyond the options (sampler thread, manifest bookkeeping).
struct RunContext {
  obs::TimeseriesSampler sampler;
  /// Present iff --slo was given; the sampler tick drives it.
  std::unique_ptr<obs::SloTracker> slo;
  std::vector<std::string> argv;
  std::string start_time;
  std::string config_hash;
  util::Stopwatch wall;
  /// False when a signal cut a soak run short (recorded in the manifest so
  /// consumers know the bundle covers fewer arrivals than configured).
  bool clean_shutdown = true;
};

/// Config echo recorded in manifest.json so a bundle is reproducible from
/// its manifest alone (the full argv is also stored verbatim).
std::map<std::string, std::string> manifest_config(const Options& opts) {
  std::map<std::string, std::string> config;
  config["mode"] = opts.mode;
  config["topology"] = opts.net.topology;
  config["nodes"] = std::to_string(opts.net.nodes);
  config["seed"] = std::to_string(opts.net.seed);
  config["algorithm"] = opts.engine.algorithm;
  config["requests"] = std::to_string(opts.work.requests);
  config["dest_ratio"] = util::format_double(opts.work.dest_ratio, 4);
  config["max_delay_ms"] = util::format_double(opts.net.max_delay_ms, 3);
  config["dynamic"] = opts.dynamic ? "true" : "false";
  if (opts.mode == "offline") {
    config["beam_width"] = std::to_string(opts.beam_width);
  }
  if (opts.dynamic || opts.soak > 0) {
    config["arrival_rate"] = util::format_double(opts.work.arrival_rate, 4);
    config["mean_duration"] = util::format_double(opts.work.mean_duration, 4);
  }
  if (opts.soak > 0) {
    config["soak"] = std::to_string(opts.soak);
    config["diurnal_amplitude"] = util::format_double(opts.work.diurnal_amplitude, 4);
    config["diurnal_period"] = util::format_double(opts.work.diurnal_period, 4);
  }
  if (!opts.slo_file.empty()) config["slo"] = opts.slo_file;
  config["threads"] = std::to_string(util::ThreadPool::global().num_threads());
  return config;
}

/// Digest of the manifest config echo. Stamped into every event-log line and
/// the manifest, so logs from different runs cannot be mixed up silently.
/// Call after the thread pool is sized (the echo records the thread count).
std::string config_digest(const Options& opts) {
  std::string text;
  for (const auto& [key, value] : manifest_config(opts)) {
    text += key;
    text += '=';
    text += value;
    text += ';';
  }
  return obs::config_hash_hex(text);
}

/// Flushes the requested artifacts at the end of the run (and on the offline
/// early-return path): sampler shutdown, trace/metrics dumps, and the
/// run-dir manifest.
void write_artifacts(const Options& opts, const obs::EventLog& events,
                     RunContext& ctx) {
  ctx.sampler.stop();  // also finishes the SLO tracker (final partial window)
  if (!opts.timeseries_file.empty()) {
    obs::log_info(std::to_string(ctx.sampler.samples_written()) +
                  " timeseries samples written to " + opts.timeseries_file);
  }
  if (ctx.slo) {
    if (opts.slo_out.empty()) {
      ctx.slo->write_json(std::cout);
    } else {
      std::ofstream out(opts.slo_out);
      if (!out) cli::usage("cannot open " + opts.slo_out);
      ctx.slo->write_json(out);
      obs::log_info("slo outcome written to " + opts.slo_out);
    }
    if (!ctx.slo->pass()) {
      std::cerr << "# SLO BREACH: " << ctx.slo->num_breached_windows()
                << " bad window(s); see `nfvm-report slo`\n";
    }
  }
  if (!opts.trace_file.empty()) {
    obs::Tracer::global().stop();
    std::ofstream out(opts.trace_file);
    if (!out) cli::usage("cannot open " + opts.trace_file);
    obs::Tracer::global().write_chrome_trace(out);
    obs::log_info("trace written to " + opts.trace_file);
  }
  if (!opts.engine.metrics_json.empty()) {
    if (opts.engine.metrics_json == "-") {
      obs::Registry::global().write_json(std::cout);
    } else {
      std::ofstream out(opts.engine.metrics_json);
      if (!out) cli::usage("cannot open " + opts.engine.metrics_json);
      obs::Registry::global().write_json(out);
      obs::log_info("metrics written to " + opts.engine.metrics_json);
    }
  }
  if (!opts.events_file.empty()) {
    obs::log_info(std::to_string(events.lines_written()) +
                  " events written to " + opts.events_file);
  }
  if (!opts.run_dir.empty()) {
    obs::RunManifest manifest;
    manifest.argv = ctx.argv;
    manifest.start_time = ctx.start_time;
    manifest.end_time = obs::iso8601_utc_now();
    manifest.wall_time_s = ctx.wall.elapsed_seconds();
    manifest.config = manifest_config(opts);
    manifest.config["config_hash"] = ctx.config_hash;
    if (opts.soak > 0) {
      manifest.config["clean_shutdown"] = ctx.clean_shutdown ? "true" : "false";
    }
    // The SLO verdict rides in the manifest so a bundle answers "did this
    // run meet its objectives" without opening slo.json.
    if (ctx.slo) manifest.config["slo_pass"] = ctx.slo->pass() ? "true" : "false";
    for (const auto& [flag, path] :
         {std::pair<const char*, const std::string&>{"metrics", opts.engine.metrics_json},
          {"events", opts.events_file},
          {"trace", opts.trace_file},
          {"timeseries", opts.timeseries_file},
          {"slo", opts.slo_out}}) {
      (void)flag;
      if (path.empty() || path == "-") continue;
      manifest.artifacts.push_back(std::filesystem::path(path).filename().string());
    }
    const std::string manifest_path =
        (std::filesystem::path(opts.run_dir) / "manifest.json").string();
    std::ofstream out(manifest_path);
    if (!out) cli::usage("cannot open " + manifest_path);
    obs::write_manifest(out, manifest);
    obs::log_info("manifest written to " + manifest_path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);
  if (opts.engine.threads > 0) util::ThreadPool::set_global_threads(opts.engine.threads);

  RunContext ctx;
  ctx.argv.assign(argv, argv + argc);
  ctx.start_time = obs::iso8601_utc_now();
  ctx.config_hash = config_digest(opts);

  if (!opts.trace_file.empty()) obs::Tracer::global().start();
  obs::EventLog events;
  if (!opts.events_file.empty()) {
    if (!events.open(opts.events_file)) cli::usage("cannot open " + opts.events_file);
    obs::JsonLine stamp;
    stamp.field("schema", obs::report::kEventsSchema)
        .field("config_hash", ctx.config_hash)
        .field("seed", opts.net.seed);
    events.set_stamp(stamp);
  }
  if (!opts.slo_specs.empty()) {
    ctx.slo = std::make_unique<obs::SloTracker>(opts.slo_specs);
    if (events.is_open()) ctx.slo->set_event_log(&events);
    ctx.sampler.set_slo_tracker(ctx.slo.get());
  }
  // The sampler runs with a file (--timeseries) or without one (--slo only:
  // its tick still drives SLO evaluation).
  if ((!opts.timeseries_file.empty() || ctx.slo != nullptr) &&
      !ctx.sampler.start(obs::Registry::global(), opts.timeseries_file,
                         std::chrono::milliseconds(opts.sample_interval_ms))) {
    cli::usage("cannot open " + opts.timeseries_file);
  }

  util::Rng rng(opts.net.seed);
  topo::Topology topo = cli::build_topology(opts.net, rng);
  std::cout << "# topology " << topo.name << ": " << topo.num_switches()
            << " switches, " << topo.num_links() << " links, "
            << topo.servers.size() << " servers\n";

  if (!opts.dump_topology.empty()) {
    std::ofstream out(opts.dump_topology);
    if (!out) cli::usage("cannot open " + opts.dump_topology);
    io::write_topology(out, topo);
    std::cout << "# topology written to " << opts.dump_topology << "\n";
  }
  if (!opts.dump_dot.empty()) {
    std::ofstream out(opts.dump_dot);
    if (!out) cli::usage("cannot open " + opts.dump_dot);
    out << io::to_dot(topo);
    std::cout << "# dot written to " << opts.dump_dot << "\n";
  }

  const sim::RequestGenOptions gen_opts = opts.work.request_gen();

  if (opts.mode == "offline") {
    // Offline single-request comparison: Appro_Multi (K=1..3), the
    // one-server baseline and the chain-split extension, averaged over the
    // request batch on the uncapacitated network.
    util::RunningStats k1, k2, k3, one, split;
    {
      // The span must close before write_artifacts stops the tracer, or it
      // would be dropped from the exported trace.
      NFVM_SPAN("cli/offline_batch");
      util::Rng costs_rng(opts.net.seed + 2);
      const core::LinearCosts costs = core::random_costs(topo, costs_rng);
      util::Rng workload(opts.net.seed + 1);
      sim::RequestGenerator gen(topo, workload, gen_opts);
      const std::size_t batch = std::min<std::size_t>(opts.work.requests, 100);
      obs::log_info("offline batch: " + std::to_string(batch) + " requests on " +
                    topo.name);
      std::vector<nfv::Request> batch_requests;
      batch_requests.reserve(batch);
      for (std::size_t i = 0; i < batch; ++i) {
        nfv::Request r = gen.next();
        r.max_delay_ms = opts.net.max_delay_ms;
        batch_requests.push_back(std::move(r));
      }
      // Requests fan out across the thread pool; aggregation below walks the
      // indexed results in request order, so stats match a serial run.
      sim::OfflineBatchOptions batch_opts;
      batch_opts.beam_width = opts.beam_width;
      const auto results =
          sim::run_offline_batch(topo, costs, batch_requests, batch_opts);
      for (const sim::OfflineRequestResult& res : results) {
        for (std::size_t k = 1; k <= 3; ++k) {
          const core::OfflineSolution& sol = res.appro_multi[k - 1];
          if (!sol.admitted) continue;
          (k == 1 ? k1 : k == 2 ? k2 : k3).add(sol.tree.cost);
        }
        if (res.one_server.admitted) one.add(res.one_server.tree.cost);
        if (res.chain_split.admitted) split.add(res.chain_split.tree.cost);
      }
    }
    util::Table offline_table({"algorithm", "admitted", "mean_cost"});
    offline_table.begin_row().add("appro_multi_K1").add(k1.count()).add(k1.mean(), 3);
    offline_table.begin_row().add("appro_multi_K2").add(k2.count()).add(k2.mean(), 3);
    offline_table.begin_row().add("appro_multi_K3").add(k3.count()).add(k3.mean(), 3);
    offline_table.begin_row().add("alg_one_server").add(one.count()).add(one.mean(), 3);
    offline_table.begin_row().add("chain_split").add(split.count()).add(split.mean(), 3);
    offline_table.print(std::cout);
    write_artifacts(opts, events, ctx);
    return 0;
  }

  std::vector<std::string> algorithms;
  if (opts.engine.algorithm == "all") {
    algorithms = {"online_cp", "online_sp", "online_sp_static"};
  } else {
    algorithms = {opts.engine.algorithm};
  }

  sim::SimulatorOptions sim_opts;
  sim_opts.event_log = events.is_open() ? &events : nullptr;
  // Provenance recording is tied to the event log: the fields only leave the
  // process through it, and it never changes any decision.
  sim_opts.record_provenance = events.is_open();

  if (opts.soak > 0) {
    util::Rng workload(opts.net.seed + 1);
    sim::RequestGenerator gen(topo, workload, gen_opts);
    auto algo = cli::build_algorithm(opts.engine.algorithm, topo);
    sim::SoakOptions soak;
    soak.num_requests = opts.soak;
    soak.arrival_rate = opts.work.arrival_rate;
    soak.mean_duration = opts.work.mean_duration;
    soak.diurnal_amplitude = opts.work.diurnal_amplitude;
    soak.diurnal_period = opts.work.diurnal_period;
    soak.max_delay_ms = opts.net.max_delay_ms;
    soak.stop = &g_soak_stop;
    struct sigaction action{};
    action.sa_handler = on_soak_signal;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);
    soak.sim = sim_opts;
    // Progress heartbeat at ~5% granularity (info level) so multi-hour
    // soaks are observably alive from the console too.
    soak.progress_every = std::max<std::size_t>(opts.soak / 20, 1);
    soak.on_progress = [&](std::size_t processed) {
      obs::log_info("soak: " + std::to_string(processed) + "/" +
                    std::to_string(opts.soak) + " requests");
    };
    obs::log_info("soak run: " + std::string(algo->name()) + ", " +
                  std::to_string(opts.soak) + " requests");
    const sim::SoakMetrics m = sim::run_soak(*algo, gen, workload, soak);
    ctx.clean_shutdown = m.clean_shutdown;
    if (!m.clean_shutdown) {
      std::cerr << "# soak interrupted by signal after " << m.num_requests
                << " requests; flushing partial artifacts\n";
    }
    util::Table soak_table({"algorithm", "requests", "admitted", "acceptance",
                            "rej_bw", "rej_cpu", "rej_thr", "rej_dly",
                            "rej_other", "peak_active", "wall_s", "req_s",
                            "p50_us", "p90_us", "p99_us"});
    soak_table.begin_row()
        .add(std::string(algo->name()))
        .add(m.num_requests)
        .add(m.num_admitted)
        .add(m.acceptance_ratio(), 3);
    add_reject_cells(soak_table, m);
    soak_table.add(m.peak_active)
        .add(m.wall_seconds, 1)
        .add(m.requests_per_s, 1)
        .add(m.p50_us, 1)
        .add(m.p90_us, 1)
        .add(m.p99_us, 1);
    soak_table.print(std::cout);
    write_artifacts(opts, events, ctx);
    return 0;
  }

  util::Table table({"algorithm", "requests", "admitted", "acceptance",
                     "mean_cost", "rej_bw", "rej_cpu", "rej_thr", "rej_dly",
                     "rej_other", "peak_active"});
  for (const std::string& name : algorithms) {
    // Fresh, identical workload per algorithm.
    util::Rng workload(opts.net.seed + 1);
    sim::RequestGenerator gen(topo, workload, gen_opts);
    auto algo = cli::build_algorithm(name, topo);
    obs::log_info("admission run: " + std::string(algo->name()) + ", " +
                  std::to_string(opts.work.requests) + " requests");
    const auto add_row = [&](const auto& m) {
      table.begin_row()
          .add(std::string(algo->name()))
          .add(m.num_requests)
          .add(m.num_admitted)
          .add(m.acceptance_ratio(), 3)
          .add(m.admitted_costs.empty() ? 0.0 : m.admitted_costs.mean(), 3);
      add_reject_cells(table, m);
    };
    if (opts.dynamic) {
      sim::DynamicWorkloadOptions dyn;
      dyn.arrival_rate = opts.work.arrival_rate;
      dyn.mean_duration = opts.work.mean_duration;
      auto requests = sim::make_poisson_workload(gen, workload, opts.work.requests, dyn);
      for (auto& tr : requests) tr.request.max_delay_ms = opts.net.max_delay_ms;
      const sim::DynamicMetrics m = sim::run_online_dynamic(*algo, requests, sim_opts);
      add_row(m);
      table.add(m.peak_active);
    } else {
      auto requests = gen.sequence(opts.work.requests);
      for (auto& r : requests) r.max_delay_ms = opts.net.max_delay_ms;
      const sim::SimulationMetrics m = sim::run_online(*algo, requests, sim_opts);
      add_row(m);
      table.add(std::string("-"));
    }
  }
  table.print(std::cout);
  write_artifacts(opts, events, ctx);
  return 0;
}
