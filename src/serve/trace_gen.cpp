#include "serve/trace_gen.h"

#include <queue>
#include <vector>

#include "serve/protocol.h"
#include "sim/soak.h"

namespace nfvm::serve {

TraceSummary write_serve_trace(std::ostream& out, const topo::Topology& topo,
                               util::Rng& rng,
                               const TraceGenOptions& options) {
  sim::check_arrival_model("write_serve_trace", options.arrival_rate,
                           options.mean_duration, options.diurnal_amplitude,
                           options.diurnal_period);

  sim::RequestGenerator generator(topo, rng, options.request_gen);
  struct Departure {
    double time;
    std::uint64_t id;
  };
  const auto later = [](const Departure& a, const Departure& b) {
    return a.time > b.time;
  };
  std::priority_queue<Departure, std::vector<Departure>, decltype(later)>
      pending(later);

  TraceSummary summary;
  const auto emit = [&](const std::string& line) {
    out << line << '\n';
    ++summary.total_lines;
  };

  double clock = 0.0;
  for (std::size_t i = 0; i < options.num_requests; ++i) {
    clock = sim::next_arrival(rng, clock, options.arrival_rate,
                              options.diurnal_amplitude, options.diurnal_period);
    const double duration = rng.exponential(1.0 / options.mean_duration);
    nfv::Request request = generator.next();
    request.max_delay_ms = options.max_delay_ms;

    while (!pending.empty() && pending.top().time <= clock) {
      emit(depart_line(pending.top().id));
      ++summary.depart_lines;
      pending.pop();
    }
    emit(arrive_line(request));
    ++summary.arrive_lines;
    pending.push(Departure{clock + duration, request.id});

    if (options.snapshot_every != 0 &&
        (i + 1) % options.snapshot_every == 0) {
      emit("{\"cmd\":\"snapshot\"}");
      ++summary.snapshot_lines;
    }
  }
  while (!pending.empty()) {
    emit(depart_line(pending.top().id));
    ++summary.depart_lines;
    pending.pop();
  }
  if (options.final_stats) emit("{\"cmd\":\"stats\"}");
  return summary;
}

}  // namespace nfvm::serve
