// Micro-benchmark for the online admission fast path:
//
//   * the rebuild scans kept in tests/reference (reference::OnlineCpRebuild
//     and reference::OnlineSpRebuild: filter the weighted graph and run
//     per-server Dijkstras from scratch on every request) vs the production
//     core::OnlineCp (its own weighted graph, patched after each admission,
//     plus the shared-closure server scan) and core::OnlineSp
//     (fresh breadth-first trees priced by parent walks),
//   * Online_CP and Online_SP, on GEANT and Waxman sweeps up to 400 nodes,
//   * periodic departures so repairs across weight decreases are paid
//     inside the measured loop, not just steady-state kept trees.
//
// Every row carries an admission checksum - sum over requests of
// (i+1) * (admitted ? 1 + cost : -1) - which is bit-deterministic, so the CI
// artifact gate (nfvm-report --check) verifies that both paths keep taking
// identical decisions on every run; timing / throughput columns (*_ms,
// *_time) are machine-dependent and only the speedup_vs_legacy ratio gates,
// via an absolute floor (nfvm-report --min speedup_vs_legacy=0.95) rather
// than a baseline-relative delta. Each mode runs twice with fresh algorithm
// instances and reports the min time, so one scheduler hiccup cannot sink
// the ratio. The binary itself exits non-zero when the two paths (or the
// two repeats) disagree on any sequence, when the incremental path loses to
// the reference rebuild scan on GEANT CP (floor 1.0x - the smallest graph,
// where the repair store's per-request diff weighs most), or when it fails
// 10x on the largest Waxman CP case. The rebuild rows keep the mode name "rebuild" and the
// ratio column its "speedup_vs_legacy" name, so the checked-in baseline and
// the CI gate read them unchanged.
#include <map>

#include "bench_common.h"
#include "core/online_cp.h"
#include "core/online_sp.h"
#include "reference/online_reference.h"
#include "topology/geant.h"

namespace {

using namespace nfvm;

struct RunResult {
  std::size_t admitted = 0;
  double time_ms = 0.0;
  double checksum = 0.0;
  // Summed per-phase wall-clock from the RequestRecord provenance, in ms
  // (all zero under NFVM_OBS=0). Timing columns never gate in CI.
  double classify_ms = 0.0;
  double closure_ms = 0.0;
  double eval_ms = 0.0;
  double realize_ms = 0.0;
  double patch_ms = 0.0;
};

/// Feeds the sequence through one algorithm instance, releasing the oldest
/// still-held footprint every 7th request (the departure pattern of the
/// trace-equivalence tests). Provenance recording stays on so the row can
/// attribute the wall clock to admission phases; both modes pay the same
/// (small) recording overhead and decisions are unaffected.
template <typename Algo>
RunResult run_sequence(Algo& algo, const std::vector<nfv::Request>& requests) {
  RunResult result;
  algo.set_record_provenance(true);
  std::vector<nfv::Footprint> held;
  util::Stopwatch watch;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const core::AdmissionDecision decision = algo.process(requests[i]);
    if (decision.admitted) {
      ++result.admitted;
      result.checksum +=
          static_cast<double>(i + 1) * (1.0 + decision.tree.cost);
      held.push_back(decision.footprint);
    } else {
      result.checksum -= static_cast<double>(i + 1);
    }
    if (const core::RequestRecord* rec = decision.record.get()) {
      result.classify_ms += rec->classify_us / 1000.0;
      result.closure_ms += rec->closure_us / 1000.0;
      result.eval_ms += rec->eval_us / 1000.0;
      result.realize_ms += rec->realize_us / 1000.0;
      result.patch_ms += rec->view_patch_us / 1000.0;
    }
    if (i % 7 == 6 && !held.empty()) {
      algo.release(held.front());
      held.erase(held.begin());
    }
  }
  result.time_ms = watch.elapsed_ms();
  return result;
}

}  // namespace

int main() {
  const std::size_t num_requests = bench::online_sequence_length(300);

  std::cout << "# micro: online admission fast path - incremental view + "
               "shared-closure scan vs per-request rebuild ("
            << num_requests << " requests, departures every 7th)\n";
  std::cout << "# checksum / admitted columns are deterministic and gate in "
               "CI; *_ms / *_time columns do not; speedup_vs_legacy gates "
               "via an absolute floor (--min)\n";

  util::Table table({"case", "mode", "n", "m", "requests", "admitted",
                     "time_ms", "req_per_s_time", "checksum",
                     "speedup_vs_legacy", "classify_ms", "closure_ms",
                     "eval_ms", "realize_ms", "patch_ms"});

  bool checksums_agree = true;
  std::map<std::string, double> speedups;

  const auto run_case = [&](const std::string& name, const topo::Topology& topo,
                            const std::vector<nfv::Request>& requests,
                            auto make_rebuild, auto make_incremental) {
    // Two repeats per mode with fresh instances; the min time feeds the
    // speedup floor so a one-off scheduler hiccup cannot sink the ratio.
    // The checksum must not move between repeats.
    const auto timed_best = [&](auto make_algo) {
      RunResult best;
      for (int rep = 0; rep < 2; ++rep) {
        auto algo = make_algo(topo);
        const RunResult r = run_sequence(algo, requests);
        if (rep == 0) {
          best = r;
          continue;
        }
        if (r.checksum != best.checksum) {
          std::cerr << "FATAL: " << name
                    << ": repeat run diverged from the first (checksum "
                    << r.checksum << " vs " << best.checksum << ")\n";
          checksums_agree = false;
        }
        if (r.time_ms < best.time_ms) best = r;
      }
      return best;
    };
    const RunResult slow = timed_best(make_rebuild);
    const RunResult fast = timed_best(make_incremental);

    if (slow.checksum != fast.checksum) {
      std::cerr << "FATAL: " << name
                << ": incremental admission sequence diverged from rebuild "
                   "(checksum "
                << fast.checksum << " vs " << slow.checksum << ")\n";
      checksums_agree = false;
    }
    const double speedup = fast.time_ms > 0.0 ? slow.time_ms / fast.time_ms : 0.0;
    speedups[name] = speedup;

    const auto row = [&](const std::string& mode, const RunResult& r,
                         bool has_ratio, double ratio) {
      table.begin_row()
          .add(name)
          .add(mode)
          .add(topo.graph.num_vertices())
          .add(topo.graph.num_edges())
          .add(requests.size())
          .add(r.admitted)
          .add(r.time_ms, 3)
          .add(r.time_ms > 0.0
                   ? static_cast<double>(requests.size()) / (r.time_ms / 1000.0)
                   : 0.0,
               1)
          .add(r.checksum, 3);
      // Legacy rows carry no ratio; a non-numeric cell stays a string in
      // the artifact, so the --min floor only ever sees real speedups.
      if (has_ratio) {
        table.add(ratio, 2);
      } else {
        table.add("-");
      }
      table.add(r.classify_ms, 3)
          .add(r.closure_ms, 3)
          .add(r.eval_ms, 3)
          .add(r.realize_ms, 3)
          .add(r.patch_ms, 3);
    };
    row("rebuild", slow, false, 0.0);
    row("incremental", fast, true, speedup);
  };

  const auto make_cp_rebuild = [](const topo::Topology& topo) {
    return reference::OnlineCpRebuild(topo);
  };
  const auto make_cp_fast = [](const topo::Topology& topo) {
    return core::OnlineCp(topo);
  };
  const auto make_sp_rebuild = [](const topo::Topology& topo) {
    return reference::OnlineSpRebuild(topo);
  };
  const auto make_sp_fast = [](const topo::Topology& topo) {
    return core::OnlineSp(topo);
  };

  // --- GEANT ------------------------------------------------------------
  {
    util::Rng rng(77);
    const topo::Topology topo = topo::make_geant(rng);
    util::Rng workload(4242);
    sim::RequestGenerator gen(topo, workload);
    const std::vector<nfv::Request> requests = gen.sequence(num_requests);
    run_case("cp_geant", topo, requests, make_cp_rebuild, make_cp_fast);
    run_case("sp_geant", topo, requests, make_sp_rebuild, make_sp_fast);
  }

  // --- Waxman size sweep -------------------------------------------------
  const std::vector<std::size_t> sizes = {100, 200, 400};
  for (std::size_t n : sizes) {
    util::Rng rng(1000 + n);
    topo::WaxmanOptions wo;
    wo.target_mean_degree = 4.0;
    wo.capacities.max_bandwidth_mbps = 2500.0;  // contention
    const topo::Topology topo = topo::make_waxman(n, rng, wo);
    util::Rng workload(4242);
    sim::RequestGenerator gen(topo, workload);
    const std::vector<nfv::Request> requests = gen.sequence(num_requests);
    run_case("cp_waxman_" + std::to_string(n), topo, requests, make_cp_rebuild,
             make_cp_fast);
    run_case("sp_waxman_" + std::to_string(n), topo, requests, make_sp_rebuild,
             make_sp_fast);
  }

  bench::finish("micro_online_admit", table);

  if (!checksums_agree) return 1;
  // Named speedup floors: the incremental path must never lose to the
  // legacy rebuild on small GEANT, where the repair store's per-request
  // diff weighs most, and must keep its order-of-magnitude win at scale.
  struct Floor {
    const char* name;
    double min;
  };
  for (const Floor floor : {Floor{"cp_geant", 1.0}, Floor{"cp_waxman_400", 10.0}}) {
    const double speedup = speedups[floor.name];
    if (speedup < floor.min) {
      std::cerr << "FATAL: " << floor.name << ": speedup_vs_legacy " << speedup
                << "x is below the required " << floor.min << "x\n";
      return 1;
    }
  }
  return 0;
}
