// Ablation A2: the effect of K (the maximum number of service-chain
// instances) on Appro_Multi's cost and running time, plus the
// branch-and-bound combination search against the exhaustive sweep.
//
// Cost is non-increasing in K (more combinations are explored) while the
// combination space grows roughly with C(|V_S|, K); the paper fixes K = 3.
// Every K row runs core::appro_multi (branch-and-bound) and the exhaustive
// sweep over the same shared-table evaluation (reference::appro_multi,
// tests/reference) on the same requests: the row reports the
// branch-and-bound timings/counters and `speedup_vs_exhaustive` (sweep wall
// time / branch-and-bound wall time). The two searches must agree exactly
// on every decision — the bench exits non-zero if they diverge.
// The trailing beam rows (K = 6, m = 2 and m = 4) measure the opt-in
// approximate mode; their `exact` column records whether the beamed cost
// still matched the exhaustive K = 6 cost on this workload.
//
// Each row also carries `decision_digest`, an FNV-1a digest of every
// request's decision (admitted flag, cost as %.17g, servers, edge uses)
// folded below 2^53 so the JSON number is exact. CI gates it with
// `nfvm-report --exact`: unlike the sweep-vs-branch-and-bound check above,
// which compares two searches over the same KMB code, it catches a changed
// decision from any layer, the Steiner kernel included. `combos_evaluated`
// and `combos_pruned` are gated exactly too; pruned combinations include
// the dominated ones the search skips (core/combo_search.h).
//
// Two regimes are measured:
//  * a homogeneous random (Waxman) network with randomly placed servers,
//    where a server near the source is usually available and one chain
//    instance is already near-optimal (K buys nothing but time), and
//  * the hierarchical GEANT-like network with servers at major PoPs and
//    small receiver groups (regional multicast), where server placement
//    moves the cost a lot even though one well-placed instance usually
//    suffices - a steep combination landscape that the branch-and-bound
//    bounds prune more than half away.
#include <cstdint>
#include <cstdio>
#include <string_view>

#include "bench_common.h"
#include "reference/appro_multi_reference.h"
#include "topology/geant.h"

namespace {

using namespace nfvm;

constexpr std::size_t kMaxK = 6;

struct ModeResult {
  bench::OfflineStats stats;
  std::size_t evaluated = 0;
  std::size_t pruned = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
};

void fnv1a(std::uint64_t& hash, std::string_view text) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
}

/// Folds one decision into the running digest: admitted flag, cost (%.17g
/// round-trips the double), chain servers and (edge, multiplicity) uses.
void digest_decision(std::uint64_t& hash, const core::OfflineSolution& sol) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%d %.17g", sol.admitted ? 1 : 0,
                sol.admitted ? sol.tree.cost : 0.0);
  fnv1a(hash, buf);
  if (!sol.admitted) {
    fnv1a(hash, "\n");
    return;
  }
  for (const graph::VertexId s : sol.tree.servers) {
    std::snprintf(buf, sizeof(buf), " s%u", static_cast<unsigned>(s));
    fnv1a(hash, buf);
  }
  for (const auto& [edge, uses] : sol.tree.edge_uses) {
    std::snprintf(buf, sizeof(buf), " e%u:%d", static_cast<unsigned>(edge), uses);
    fnv1a(hash, buf);
  }
  fnv1a(hash, "\n");
}

/// core::appro_multi for kBranchAndBound, the reference sweep otherwise.
ModeResult run_mode(const topo::Topology& topo, const core::LinearCosts& costs,
                    const std::vector<nfv::Request>& requests, std::size_t k,
                    reference::Search search, std::size_t beam_width) {
  ModeResult r;
  r.stats = bench::run_offline_batch(requests, [&](const nfv::Request& req) {
    core::ApproMultiOptions opts;
    opts.max_servers = k;
    opts.beam_width = beam_width;
    core::OfflineSolution sol =
        search == reference::Search::kBranchAndBound
            ? core::appro_multi(topo, costs, req, opts)
            : reference::appro_multi(topo, costs, req, opts,
                                     reference::Engine::kSharedDijkstra, search);
    r.evaluated += sol.combinations_explored;
    r.pruned += sol.combinations_pruned;
    digest_decision(r.digest, sol);
    return sol;
  });
  return r;
}

void add_row(util::Table& table, const std::string& topo_name, std::size_t k,
             const std::string& search, const ModeResult& r, double k1_cost,
             double legacy_ms, std::size_t num_requests, bool exact) {
  const std::size_t space = r.evaluated + r.pruned;
  const std::size_t per_req = std::max<std::size_t>(num_requests, 1);
  table.begin_row()
      .add(topo_name)
      .add(k)
      .add(search)
      .add(r.stats.cost.mean(), 2)
      .add(k1_cost > 0 ? r.stats.cost.mean() / k1_cost : 0.0, 3)
      .add(r.stats.time_ms.mean(), 3)
      .add(r.stats.servers_used.mean(), 2)
      .add(r.evaluated / per_req)
      .add(r.pruned / per_req)
      .add(space > 0 ? 100.0 * static_cast<double>(r.pruned) /
                           static_cast<double>(space)
                     : 0.0,
           1)
      .add(r.stats.time_ms.mean() > 0 ? legacy_ms / r.stats.time_ms.mean() : 0.0,
           2)
      .add(exact ? "yes" : "no")
      .add(std::to_string(r.digest & ((std::uint64_t{1} << 53) - 1)));
}

/// True when the two searches agreed on every request — the decisions are
/// bitwise-deterministic, so aggregate equality means per-request equality
/// up to cost-sum rounding.
bool same_decisions(const ModeResult& a, const ModeResult& b) {
  return a.stats.admitted == b.stats.admitted &&
         a.stats.rejected == b.stats.rejected &&
         a.stats.cost.mean() == b.stats.cost.mean() &&
         a.stats.servers_used.mean() == b.stats.servers_used.mean();
}

bool sweep(const topo::Topology& topo, const core::LinearCosts& costs,
           const std::vector<nfv::Request>& requests, util::Table& table) {
  bool all_exact = true;
  double k1_cost = 0.0;
  double legacy_k6_ms = 0.0;
  double bnb_k6_cost = 0.0;
  for (std::size_t k = 1; k <= kMaxK; ++k) {
    const ModeResult legacy =
        run_mode(topo, costs, requests, k, reference::Search::kLegacySweep, 0);
    const ModeResult bnb =
        run_mode(topo, costs, requests, k, reference::Search::kBranchAndBound, 0);
    const bool exact = same_decisions(legacy, bnb);
    if (!exact) {
      std::cerr << "ERROR: branch-and-bound diverged from the exhaustive sweep "
                << "on " << topo.name << " at K=" << k << "\n";
      all_exact = false;
    }
    if (k == 1) k1_cost = bnb.stats.cost.mean();
    if (k == kMaxK) {
      legacy_k6_ms = legacy.stats.time_ms.mean();
      bnb_k6_cost = bnb.stats.cost.mean();
    }
    add_row(table, topo.name, k, "bnb", bnb, k1_cost,
            legacy.stats.time_ms.mean(), requests.size(), exact);
  }
  for (const std::size_t m : {std::size_t{2}, std::size_t{4}}) {
    const ModeResult beam =
        run_mode(topo, costs, requests, kMaxK, reference::Search::kBranchAndBound, m);
    add_row(table, topo.name, kMaxK, "beam_m" + std::to_string(m), beam,
            k1_cost, legacy_k6_ms, requests.size(),
            beam.stats.cost.mean() == bnb_k6_cost);
  }
  return all_exact;
}

}  // namespace

int main() {
  const std::size_t per_point = bench::offline_requests_per_point(10);

  std::cout << "# Ablation A2: Appro_Multi cost/time vs K, "
               "branch-and-bound vs exhaustive sweep\n";
  std::cout << "# requests per data point: " << per_point << "\n";

  util::Table table({"topology", "K", "search", "mean_cost", "cost_vs_K1",
                     "mean_ms", "mean_servers", "combos_evaluated",
                     "combos_pruned", "pct_pruned", "speedup_vs_exhaustive",
                     "exact", "decision_digest"});

  bool all_exact = true;
  {
    util::Rng rng(1100);
    const topo::Topology topo = bench::make_sweep_topology(100, rng);
    const core::LinearCosts costs = core::random_costs(topo, rng);
    sim::RequestGenOptions gen_opts;
    gen_opts.min_dest_ratio = 0.10;
    gen_opts.max_dest_ratio = 0.10;
    util::Rng workload(2100);
    sim::RequestGenerator gen(topo, workload, gen_opts);
    all_exact &= sweep(topo, costs, gen.sequence(per_point), table);
  }
  {
    util::Rng rng(1200);
    const topo::Topology topo = topo::make_geant(rng);
    const core::LinearCosts costs = core::random_costs(topo, rng);
    sim::RequestGenOptions gen_opts;
    gen_opts.min_dest_ratio = 0.10;
    gen_opts.max_dest_ratio = 0.10;
    util::Rng workload(2200);
    sim::RequestGenerator gen(topo, workload, gen_opts);
    all_exact &= sweep(topo, costs, gen.sequence(per_point * 2), table);
  }
  bench::finish("ablation_k", table);
  if (!all_exact) {
    std::cerr << "FAILED: exactness check (see ERROR lines above)\n";
    return 1;
  }
  return 0;
}
