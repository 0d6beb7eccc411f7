// Offline workload: core::appro_multi (K = 3) on an uncapacitated Waxman
// graph, configured the way `nfvm-sim --mode offline` configures it
// (sim::OfflineBatchOptions defaults), each call timed on its own.
#include <cstdio>

#include "common.h"
#include "core/appro_multi.h"
#include "core/cost_model.h"
#include "serve/protocol.h"
#include "sim/offline_batch.h"
#include "sim/request_gen.h"
#include "topology/waxman.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

using namespace nfvm;

constexpr const char* kWorkload = "offline_waxman200_k3";
constexpr std::size_t kNodes = 200;
constexpr std::size_t kMaxServers = 3;
constexpr std::size_t kPoolThreads = 2;
/// Distinct requests; a run passes over them at least twice. 1,500 put 15
/// latencies beyond the p99, so it depends less on which requests a seed
/// draws than with 1,000.
constexpr std::size_t kRequests = 1500;
/// D_max / |V| fixed at the paper's lower bound (up to 10 destinations), so
/// two passes take about 30 s.
constexpr double kDestRatio = 0.05;
/// Requests between two CPU moves of an untraced run: about half a second.
constexpr std::size_t kRequestsPerCpu = 40;
/// Fixed for every run: only the requests (the run's --seed) vary.
constexpr std::uint64_t kTopologySeed = 11;

struct Inputs {
  topo::Topology topo;
  core::LinearCosts costs;
  std::vector<nfv::Request> requests;
};

Inputs build_inputs(std::uint64_t seed) {
  util::Rng rng(kTopologySeed);
  topo::WaxmanOptions options;
  options.target_mean_degree = 4.0;
  Inputs in{topo::make_waxman(kNodes, rng, options), {}, {}};
  util::Rng costs_rng(kTopologySeed + 2);
  in.costs = core::random_costs(in.topo, costs_rng);
  sim::RequestGenOptions generate;
  generate.min_dest_ratio = kDestRatio;
  generate.max_dest_ratio = kDestRatio;
  util::Rng workload(seed);
  sim::RequestGenerator generator(in.topo, workload, generate);
  in.requests = generator.sequence(kRequests);
  return in;
}

core::ApproMultiOptions appro_options() {
  const sim::OfflineBatchOptions batch;
  core::ApproMultiOptions options;
  options.max_servers = kMaxServers;
  options.engine = batch.engine;
  options.search = batch.search;
  options.beam_width = batch.beam_width;
  return options;
}

struct Call {
  Clock::time_point start;
  Clock::time_point end;
  /// Digest of (admitted, cost %.17g, servers); 0 when the call threw.
  std::uint64_t hash = 0;
  bool threw = false;
  core::OfflineSolution solution;
};

Call call(const Inputs& in, std::size_t i, const core::ApproMultiOptions& options) {
  Call c;
  c.start = Clock::now();
  try {
    c.solution = core::appro_multi(in.topo, in.costs, in.requests[i], options);
  } catch (const std::exception&) {
    c.threw = true;
  }
  c.end = Clock::now();
  if (c.threw) return c;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%d %.17g", c.solution.admitted ? 1 : 0,
                c.solution.tree.cost);
  Digest digest;
  digest.add(buf);
  for (const graph::VertexId s : c.solution.tree.servers) {
    digest.add(" " + std::to_string(s));
  }
  c.hash = digest.value();
  return c;
}

/// The requests in the serve protocol's arrive-line form.
std::string input_digest(const Inputs& in) {
  Digest digest;
  for (const nfv::Request& r : in.requests) digest.add_line(serve::arrive_line(r));
  return digest.hex();
}

std::string digest_of(const std::vector<std::uint64_t>& hashes) {
  Digest digest;
  for (const std::uint64_t h : hashes) digest.add(std::to_string(h) + "\n");
  return digest.hex();
}

/// Outcome of one call per request, in request order.
struct Pass {
  std::vector<double> call_us;
  std::vector<std::uint64_t> hashes;
  std::uint64_t admitted = 0;
  std::uint64_t failed = 0;
  double cost_sum = 0.0;
  std::uint64_t explored = 0;
  std::uint64_t pruned = 0;
  double wall_s = 0.0;
  Counters counters;
  std::vector<Span> spans;
  Clock::time_point origin;

  void add(const Call& c) {
    call_us.push_back(us_between(c.start, c.end));
    hashes.push_back(c.hash);
    if (c.threw) {
      ++failed;
      return;
    }
    explored += c.solution.combinations_explored;
    pruned += c.solution.combinations_pruned;
    if (c.solution.admitted) {
      ++admitted;
      cost_sum += c.solution.tree.cost;
    }
  }
};

Pass run_pass(const Inputs& in, bool traced) {
  const core::ApproMultiOptions options = appro_options();
  Pass pass;
  const Counters before = counters_now();
  pass.origin = Clock::now();
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    const Call c = call(in, i, options);
    pass.add(c);
    if (traced) pass.spans.push_back(Span{"request", i, c.start, c.end});
  }
  pass.wall_s = s_between(pass.origin, Clock::now());
  pass.counters = counters_delta(before, counters_now());
  return pass;
}

void run_untraced(const RunOptions& options, RunResult& result) {
  std::vector<double> setup_s;
  auto timed_build = [&] {
    const Clock::time_point t0 = Clock::now();
    Inputs built = build_inputs(options.seed);
    setup_s.push_back(s_between(t0, Clock::now()));
    return built;
  };
  const Inputs in = timed_build();
  // Passes over all requests continue while one more still fits in the
  // run's time, and there are at least two. The first pass fills `first`;
  // every later call of a request must match its hash. Between calls the
  // inputs are built again every kSetupEveryS seconds, for setup samples.
  // Every kRequestsPerCpu requests the run moves to the next CPU, and each
  // pass starts one CPU further on (see BestTimes).
  const core::ApproMultiOptions appro = appro_options();
  Pass first;
  BestTimes best(in.requests.size());
  std::size_t passes = 0;
  std::size_t repeats_checked = 0;
  const Clock::time_point start = Clock::now();
  Clock::time_point last_setup = start;
  while (passes < 2 || s_between(start, Clock::now()) * (passes + 1) / passes <=
                           options.seconds) {
    for (std::size_t i = 0; i < in.requests.size(); ++i) {
      if (i % kRequestsPerCpu == 0) move_to_cpu(i / kRequestsPerCpu + passes);
      const Call c = call(in, i, appro);
      best.add(i, us_between(c.start, c.end));
      ++result.attempted;
      if (c.threw) ++result.failed;
      if (passes == 0) {
        first.add(c);
      } else if (c.hash != first.hashes[i]) {
        result.fail("request " + std::to_string(i) +
                    ": repeated appro_multi call returned a different solution");
      } else {
        ++repeats_checked;
      }
      if (s_between(last_setup, Clock::now()) >= kSetupEveryS) {
        timed_build();
        last_setup = Clock::now();
      }
    }
    ++passes;
  }
  while (setup_s.size() < kMinSetupSamples) timed_build();
  if (result.failed != 0) {
    result.fail(std::to_string(result.failed) + " appro_multi calls threw");
  }
  const std::string digest = digest_of(first.hashes);
  check_recorded_digest(options, input_digest(in), digest, result);
  result.note(std::to_string(passes) + " passes over " +
              std::to_string(in.requests.size()) + " requests (" +
              std::to_string(repeats_checked) +
              " repeats matched their first result), digest " + digest +
              "; rate and latency from each request's best call");
  result.note("failed_ratio: " +
              std::to_string(ratio(static_cast<double>(result.failed),
                                   static_cast<double>(result.attempted))));
  const std::vector<double> call_us = best.best_us([](std::size_t) { return true; });
  result.add("setup_s", quantile(setup_s, 0.5), "s", setup_s.size());
  result.add("req_per_s", ratio(static_cast<double>(call_us.size()), best.total_s()),
             "1/s", call_us.size());
  result.add("latency_p50_us", quantile(call_us, 0.5), "us", call_us.size());
  result.add("latency_p99_us", quantile(call_us, 0.99), "us", call_us.size());
  result.add("admit_ratio",
             ratio(static_cast<double>(first.admitted),
                   static_cast<double>(in.requests.size())),
             "ratio", in.requests.size());
  result.add("mean_cost",
             ratio(first.cost_sum, static_cast<double>(first.admitted)), "cost",
             first.admitted);
  result.add("peak_rss_mb", self_peak_rss_mb(), "MiB", 1);
}

void run_traced(const RunOptions& options, RunResult& result) {
  const Inputs in = build_inputs(options.seed);
  // Untraced passes on both sides of the traced one, so process warm-up
  // does not bias the trace-overhead figure.
  const Pass plain = run_pass(in, /*traced=*/false);
  const char* kHdr[] = {"core.appro_multi.context_us",
                        "core.appro_multi.evaluate_us",
                        "core.appro_multi.realize_us",
                        "core.shared_closure.oracle_us"};
  std::vector<HdrState> hdr_before;
  for (const char* name : kHdr) hdr_before.push_back(hdr_state(name));
  const Pass traced = run_pass(in, /*traced=*/true);
  std::vector<double> hdr_means;
  for (std::size_t i = 0; i < std::size(kHdr); ++i) {
    hdr_means.push_back(hdr_mean(hdr_before[i], hdr_state(kHdr[i])));
  }
  const Pass plain2 = run_pass(in, /*traced=*/false);
  result.attempted += 3 * in.requests.size();
  result.failed += plain.failed + traced.failed + plain2.failed;
  if (result.failed != 0) {
    result.fail(std::to_string(result.failed) + " appro_multi calls threw");
  }
  const std::string digest = digest_of(traced.hashes);
  for (const Pass* pass : {&plain, &plain2}) {
    if (pass->hashes != traced.hashes) {
      result.fail("offline digest differs between passes: " +
                  digest_of(pass->hashes) + " vs " + digest);
    }
  }
  check_counts_equal(plain.counters, traced.counters, "passes", result);
  check_counts_equal(plain.counters, plain2.counters, "passes", result);
  check_recorded_digest(options, input_digest(in), digest, result);

  const Counters& c = traced.counters;
  const double calls = static_cast<double>(traced.call_us.size());
  auto per = [&](std::string_view name) {
    return ratio(static_cast<double>(counter(c, name)), calls);
  };
  // The appro_multi call is this workload's core entry point: its phases
  // (context, evaluate, realize) plus unaccounted add up to the call mean.
  const double call = mean(traced.call_us);
  const double phases = hdr_means[0] + hdr_means[1] + hdr_means[2];
  const double unaccounted = call - phases;
  result.note("ledger: appro_multi call p50 " +
              std::to_string(quantile(traced.call_us, 0.5)) + " us, mean " +
              std::to_string(call) + " us = context " +
              std::to_string(hdr_means[0]) + " + evaluate " +
              std::to_string(hdr_means[1]) + " + realize " +
              std::to_string(hdr_means[2]) + " + unaccounted " +
              std::to_string(unaccounted) + " (unaccounted share " +
              std::to_string(100.0 * ratio(unaccounted, call)) + "%)");
  result.note("digest " + digest + ", " + std::to_string(kPoolThreads) +
              "-thread pool");

  // Online-only layers: no serve layer, no resource state, no view.
  for (const char* name : {"serve.parse_us", "serve.reply_us", "serve.transport_us"}) {
    result.add(name, 0.0, "us");
  }
  result.add("core.process_us", call, "us", traced.call_us.size());
  for (const char* name : {"core.release_us", "core.classify_us",
                           "core.closure_us", "core.eval_us", "core.realize_us",
                           "core.view_patch_us"}) {
    result.add(name, 0.0, "us");
  }
  result.add("core.unaccounted_us", unaccounted, "us", traced.call_us.size());
  result.add("core.servers_evaluated", 0.0, "count");
  result.add("core.online.view_rebuilds_per_depart", 0.0, "count");
  result.add("core.online.view_patches_per_admit", 0.0, "count");
  result.add("core.online.view_policy_incremental_share", 0.0, "ratio");
  result.add("graph.dijkstra.runs", per("graph.dijkstra.runs"), "count");
  result.add("graph.dijkstra.edges_relaxed", per("graph.dijkstra.edges_relaxed"),
             "count");
  result.add("graph.dijkstra.edges_scanned", per("graph.dijkstra.edges_scanned"),
             "count");
  result.add("graph.dijkstra.dial_share",
             ratio(static_cast<double>(counter(c, "graph.dijkstra.dial_runs")),
                   static_cast<double>(counter(c, "graph.dijkstra.runs"))),
             "ratio");
  result.add("graph.spcache.hit_ratio",
             ratio(static_cast<double>(counter(c, "graph.spcache.hits")),
                   static_cast<double>(counter(c, "graph.spcache.hits") +
                                       counter(c, "graph.spcache.misses"))),
             "ratio");
  result.add("graph.spcache.keyed_evictions_per_depart", 0.0, "count");
  result.add("graph.steiner.kmb.runs", per("graph.steiner.kmb.runs"), "count");
  result.add("graph.steiner.kmb_finish.runs", per("graph.steiner.kmb_finish.runs"),
             "count");
  result.add("core.appro_multi.context_us", hdr_means[0], "us");
  result.add("core.appro_multi.evaluate_us", hdr_means[1], "us");
  result.add("core.appro_multi.realize_us", hdr_means[2], "us");
  result.add("core.shared_closure.oracle_us", hdr_means[3], "us");
  result.add("core.appro_multi.combinations_explored",
             ratio(static_cast<double>(traced.explored), calls), "count");
  result.add("core.appro_multi.prune_ratio",
             ratio(static_cast<double>(traced.pruned),
                   static_cast<double>(traced.pruned + traced.explored)),
             "ratio");
  result.add("pool.parallel_regions", per("pool.parallel_regions"), "count");
  result.add("pool.tasks", per("pool.tasks"), "count");
  const double plain_wall = 0.5 * (plain.wall_s + plain2.wall_s);
  result.add("bench.trace_overhead_pct",
             100.0 * ratio(traced.wall_s - plain_wall, plain_wall), "%");

  const std::string spans_path = options.work_dir + "/spans-" + kWorkload + "-" +
                                 std::to_string(options.seed) + ".jsonl";
  if (write_spans(spans_path, traced.spans, traced.origin)) {
    result.note("spans: " + spans_path);
  }
}

}  // namespace

bool is_offline_workload(std::string_view name) { return name == kWorkload; }

RunResult run_offline(const RunOptions& options) {
  util::ThreadPool::set_global_threads(kPoolThreads);
  RunResult result;
  result.note(std::string("workload ") + kWorkload + ": appro_multi K=" +
              std::to_string(kMaxServers) + " on uncapacitated waxman-" +
              std::to_string(kNodes) + ", topology seed " +
              std::to_string(kTopologySeed) + ", request seed " +
              std::to_string(options.seed) + ", " + std::to_string(kPoolThreads) +
              "-thread pool");
  if (options.trace) {
    run_traced(options, result);
  } else {
    run_untraced(options, result);
  }
  return result;
}

}  // namespace perfbench
