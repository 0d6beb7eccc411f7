// Sustained-load soak harness: streams millions of Poisson (optionally
// diurnally modulated) arrivals and exponential departures through an online
// algorithm without materializing the workload. Where run_online_dynamic
// takes a pregenerated std::vector<TimedRequest> (fine for 10^4-10^5
// requests, prohibitive at 10^6+), run_soak draws each request on the fly,
// so memory stays flat at the departure queue's size and the run length is
// bounded only by patience.
//
// Wired to `nfvm-sim --soak N` (plus --arrival-rate / --mean-duration /
// --diurnal-amplitude / --diurnal-period); combine with --timeseries and
// --slo to exercise the windowed telemetry and SLO layers this harness
// exists to feed. Determinism: the arrival process consumes the RNG
// identically whether or not NFVM_OBS instrumentation is compiled in, so
// decision streams are byte-identical across builds.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <functional>

#include "core/online.h"
#include "sim/request_gen.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace nfvm::sim {

struct SoakOptions {
  /// Number of arrivals to offer.
  std::size_t num_requests = 1'000'000;
  /// Base Poisson arrival rate (arrivals per simulated time unit).
  double arrival_rate = 1.0;
  /// Mean of the exponential holding-time distribution.
  double mean_duration = 20.0;
  /// Diurnal modulation amplitude A in [0, 1):
  ///   rate(t) = arrival_rate * (1 + A * sin(2*pi*t / diurnal_period)).
  /// 0 keeps arrivals homogeneous. Implemented by thinning a homogeneous
  /// process at the peak rate, the standard exact method for
  /// non-homogeneous Poisson processes.
  double diurnal_amplitude = 0.0;
  /// Simulated time units per diurnal cycle.
  double diurnal_period = 86'400.0;
  /// Per-request delay bound, applied to every generated request;
  /// 0 = unconstrained (mirrors `nfvm-sim --max-delay`).
  double max_delay_ms = 0.0;
  /// Invoked every `progress_every` processed requests (and once at the
  /// end) with the number processed so far; 0 disables. Runs inline - keep
  /// it cheap.
  std::size_t progress_every = 0;
  std::function<void(std::size_t processed)> on_progress;
  /// Cooperative early-stop flag (typically flipped by a SIGINT/SIGTERM
  /// handler): checked before each arrival; when true the run winds down
  /// cleanly - departures drained, metrics finalized over the requests
  /// actually processed - and SoakMetrics.clean_shutdown reports false.
  /// Null disables the check.
  const std::atomic<bool>* stop = nullptr;
  /// Validation / event-log / provenance switches, as for run_online.
  SimulatorOptions sim;
};

struct SoakMetrics {
  /// Arrivals actually processed - equals the configured count unless the
  /// stop flag ended the run early.
  std::size_t num_requests = 0;
  /// False when the stop flag interrupted the run; artifacts from such a run
  /// are still internally consistent (partial counts, drained departures)
  /// but cover fewer arrivals than configured.
  bool clean_shutdown = true;
  std::size_t num_admitted = 0;
  std::size_t num_rejected = 0;
  std::array<std::size_t, core::kNumRejectCauses> rejects_by_cause{};
  /// Largest / arrival-averaged number of simultaneously held admissions.
  std::size_t peak_active = 0;
  double mean_active = 0.0;
  /// Simulated time of the last arrival.
  double sim_duration = 0.0;
  /// Wall-clock cost of the whole run and the sustained decision rate.
  double wall_seconds = 0.0;
  double requests_per_s = 0.0;
  /// Per-decision latency in microseconds (count/mean/min/max; no retained
  /// samples - a million-request soak must not hoard 8 MB of doubles).
  util::RunningStats decision_us;
  /// Whole-run latency quantiles, estimated from an HDR histogram (<= 1%
  /// relative error). The windowed per-interval view lives in the
  /// --timeseries stream; these are the run-level rollup.
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;

  double acceptance_ratio() const {
    return num_requests == 0 ? 0.0
                             : static_cast<double>(num_admitted) /
                                   static_cast<double>(num_requests);
  }

  std::size_t rejected_because(core::RejectCause cause) const {
    return rejects_by_cause[static_cast<std::size_t>(cause)];
  }
};

/// The arrival model run_soak and serve::write_serve_trace share. Throws
/// std::invalid_argument ("<who>: ...") unless the rate and the mean
/// duration are positive, the diurnal amplitude lies in [0, 1) (NaN does
/// not) and, with the modulation on, the period is positive.
void check_arrival_model(const char* who, double arrival_rate,
                         double mean_duration, double diurnal_amplitude,
                         double diurnal_period);

/// Next arrival instant after `clock`. Homogeneous draws at the peak rate
/// are thinned down to the instantaneous rate (Lewis & Shedler); with zero
/// amplitude every candidate is accepted and this reduces to the plain
/// exponential gap. Soak runs and serve traces replay only as long as this
/// draw order holds.
double next_arrival(util::Rng& rng, double clock, double arrival_rate,
                    double diurnal_amplitude, double diurnal_period);

/// Streams `options.num_requests` arrivals from `generator` through
/// `algorithm`, releasing departed footprints before each arrival. `rng`
/// drives the arrival process (inter-arrival gaps, holding times, diurnal
/// thinning); `generator` draws the request bodies. Throws
/// std::invalid_argument as check_arrival_model does.
SoakMetrics run_soak(core::OnlineAlgorithm& algorithm,
                     RequestGenerator& generator, util::Rng& rng,
                     const SoakOptions& options);

}  // namespace nfvm::sim
