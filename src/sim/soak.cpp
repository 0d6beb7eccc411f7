#include "sim/soak.h"

#include <cmath>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/hdr_histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "util/timer.h"

namespace nfvm::sim {

void check_arrival_model(const char* who, double arrival_rate,
                         double mean_duration, double diurnal_amplitude,
                         double diurnal_period) {
  const auto fail = [who](const char* what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (!(arrival_rate > 0) || !(mean_duration > 0)) fail("rates must be positive");
  if (!(diurnal_amplitude >= 0.0 && diurnal_amplitude < 1.0)) {
    fail("diurnal amplitude must be in [0, 1)");
  }
  if (diurnal_amplitude > 0.0 && !(diurnal_period > 0.0)) {
    fail("diurnal period must be positive");
  }
}

double next_arrival(util::Rng& rng, double clock, double arrival_rate,
                    double diurnal_amplitude, double diurnal_period) {
  constexpr double kTwoPi = 6.283185307179586;
  const double peak_rate = arrival_rate * (1.0 + diurnal_amplitude);
  for (;;) {
    clock += rng.exponential(peak_rate);
    if (diurnal_amplitude == 0.0) return clock;
    const double rate =
        arrival_rate *
        (1.0 + diurnal_amplitude * std::sin(kTwoPi * clock / diurnal_period));
    if (rng.uniform01() * peak_rate < rate) return clock;
  }
}

SoakMetrics run_soak(core::OnlineAlgorithm& algorithm,
                     RequestGenerator& generator, util::Rng& rng,
                     const SoakOptions& options) {
  NFVM_SPAN("sim/run_soak");
  check_arrival_model("run_soak", options.arrival_rate, options.mean_duration,
                      options.diurnal_amplitude, options.diurnal_period);

  SoakMetrics metrics;
  metrics.num_requests = options.num_requests;
  algorithm.set_record_provenance(options.sim.record_provenance);

  struct Departure {
    double time;
    nfv::Footprint footprint;
  };
  const auto later = [](const Departure& a, const Departure& b) {
    return a.time > b.time;
  };
  std::priority_queue<Departure, std::vector<Departure>, decltype(later)>
      active(later);

  obs::HdrHistogram latency;
  util::Stopwatch wall;
  double clock = 0.0;
  double active_sum = 0.0;
  std::size_t processed = 0;
  for (std::size_t i = 0; i < options.num_requests; ++i) {
    if (options.stop != nullptr &&
        options.stop->load(std::memory_order_relaxed)) {
      metrics.clean_shutdown = false;
      break;
    }
    clock = next_arrival(rng, clock, options.arrival_rate,
                         options.diurnal_amplitude, options.diurnal_period);
    // Draw the holding time before processing so the RNG stream does not
    // depend on the admission outcome - rejected requests must consume the
    // same draws as admitted ones for cross-build reproducibility.
    const double duration = rng.exponential(1.0 / options.mean_duration);
    nfv::Request request = generator.next();
    request.max_delay_ms = options.max_delay_ms;

    while (!active.empty() && active.top().time <= clock) {
      algorithm.release(active.top().footprint);
      active.pop();
    }

    util::Stopwatch watch;
    const core::AdmissionDecision decision = algorithm.process(request);
    const double seconds = watch.elapsed_seconds();
    const double us = seconds * 1e6;
    metrics.decision_us.add(us);
    latency.observe(us);
    NFVM_HDR_OBSERVE("online.decision_us", us);
    NFVM_WINDOW_OBSERVE("online.decision_us", us);

    if (decision.admitted) {
      if (options.sim.validate_trees) {
        std::string error;
        if (!core::validate_pseudo_tree(algorithm.topology().graph, request,
                                        decision.tree, &error)) {
          throw std::logic_error("run_soak: invalid pseudo-multicast tree for " +
                                 request.to_string() + ": " + error);
        }
      }
      ++metrics.num_admitted;
      active.push(Departure{clock + duration, decision.footprint});
    } else {
      ++metrics.num_rejected;
      ++metrics.rejects_by_cause[static_cast<std::size_t>(decision.reject_cause)];
    }
    metrics.peak_active = std::max(metrics.peak_active, active.size());
    active_sum += static_cast<double>(active.size());
    processed = i + 1;
    emit_request_event(options.sim.event_log, algorithm, i, request, decision,
                       seconds, clock);
    if (options.progress_every != 0 && options.on_progress &&
        (i + 1) % options.progress_every == 0) {
      options.on_progress(i + 1);
    }
  }
  // All rollups cover the arrivals actually processed, so an interrupted run
  // still writes internally consistent artifacts.
  metrics.num_requests = processed;
  metrics.wall_seconds = wall.elapsed_seconds();
  metrics.sim_duration = clock;
  metrics.mean_active =
      processed == 0 ? 0.0 : active_sum / static_cast<double>(processed);
  metrics.requests_per_s =
      metrics.wall_seconds > 0.0
          ? static_cast<double>(processed) / metrics.wall_seconds
          : 0.0;
  if (latency.count() > 0) {
    metrics.p50_us = latency.quantile(0.50);
    metrics.p90_us = latency.quantile(0.90);
    metrics.p99_us = latency.quantile(0.99);
  }
  if (options.progress_every != 0 && options.on_progress &&
      processed % options.progress_every != 0) {
    options.on_progress(processed);
  }
  // Drain remaining departures so the algorithm's state returns to idle.
  while (!active.empty()) {
    algorithm.release(active.top().footprint);
    active.pop();
  }
  return metrics;
}

}  // namespace nfvm::sim
