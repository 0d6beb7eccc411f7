// The online admission fast path: trace equivalence between the production
// scans (Online_CP: patched weighted graph + repaired server trees +
// shared-closure scan; Online_SP: fresh breadth-first trees + parent-walk
// pricing) and the per-request rebuild scans kept in tests/reference,
// Online_CP's weighted graph and repair store, and RejectTracker
// precedence.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/online.h"
#include "core/online_cp.h"
#include "core/online_sp.h"
#include "core/online_sp_static.h"
#include "graph/dijkstra.h"
#include "graph/sp_engine.h"
#include "graph/sp_repair.h"
#include "nfv/resources.h"
#include "obs/metrics.h"
#include "obs_test_util.h"
#include "reference/online_reference.h"
#include "reference/support.h"
#include "sim/request_gen.h"
#include "sim/simulator.h"
#include "topology/geant.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::core {
namespace {

using reference::OnlineCpRebuild;
using reference::OnlineSpRebuild;

// ---------------------------------------------------------------------------
// Trace equivalence: production scan vs the reference rebuild scan
// ---------------------------------------------------------------------------

void expect_same_decision(const AdmissionDecision& a, const AdmissionDecision& b,
                          std::size_t index) {
  ASSERT_EQ(a.admitted, b.admitted) << "request " << index;
  EXPECT_EQ(a.reject_reason, b.reject_reason) << "request " << index;
  EXPECT_EQ(a.reject_cause, b.reject_cause) << "request " << index;
  EXPECT_EQ(a.tree.source, b.tree.source) << "request " << index;
  EXPECT_EQ(a.tree.servers, b.tree.servers) << "request " << index;
  EXPECT_EQ(a.tree.cost, b.tree.cost) << "request " << index;  // bit-exact
  EXPECT_EQ(a.tree.edge_uses, b.tree.edge_uses) << "request " << index;
  ASSERT_EQ(a.tree.routes.size(), b.tree.routes.size()) << "request " << index;
  for (std::size_t r = 0; r < a.tree.routes.size(); ++r) {
    EXPECT_EQ(a.tree.routes[r].destination, b.tree.routes[r].destination);
    EXPECT_EQ(a.tree.routes[r].server, b.tree.routes[r].server);
    EXPECT_EQ(a.tree.routes[r].walk, b.tree.routes[r].walk);
    EXPECT_EQ(a.tree.routes[r].server_index, b.tree.routes[r].server_index);
  }
  EXPECT_EQ(a.footprint.bandwidth, b.footprint.bandwidth) << "request " << index;
  EXPECT_EQ(a.footprint.compute, b.footprint.compute) << "request " << index;
  EXPECT_EQ(a.footprint.table_entries, b.footprint.table_entries)
      << "request " << index;
}

/// Feeds the same request sequence (with periodic departures) through both
/// algorithms and requires byte-identical decision streams.
void run_trace_equivalence(OnlineAlgorithm& fast, OnlineAlgorithm& reference,
                           std::size_t num_requests) {
  util::Rng workload(515);
  sim::RequestGenerator gen(fast.topology(), workload);
  const std::vector<nfv::Request> requests = gen.sequence(num_requests);

  std::vector<nfv::Footprint> admitted_fast;
  std::vector<nfv::Footprint> admitted_reference;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const AdmissionDecision df = fast.process(requests[i]);
    const AdmissionDecision dr = reference.process(requests[i]);
    expect_same_decision(df, dr, i);
    if (df.admitted) {
      admitted_fast.push_back(df.footprint);
      admitted_reference.push_back(dr.footprint);
    }
    // Departures: release the oldest still-held footprint every 7 requests,
    // so server trees are repaired across weight decreases mid-sequence.
    if (i % 7 == 6 && !admitted_fast.empty()) {
      fast.release(admitted_fast.front());
      reference.release(admitted_reference.front());
      admitted_fast.erase(admitted_fast.begin());
      admitted_reference.erase(admitted_reference.begin());
    }
  }
  EXPECT_EQ(fast.num_admitted(), reference.num_admitted());
  EXPECT_EQ(fast.num_rejected(), reference.num_rejected());
}

TEST(OnlineFastPath, CpTraceEquivalenceWithDepartures) {
  util::Rng rng(91);
  const topo::Topology topo = topo::make_waxman(60, rng);
  OnlineCp fast(topo);
  OnlineCpRebuild reference(topo);
  const test::CounterBaseline counters;
  // Long enough to leave the zero-weight warm-up, where ties force full
  // recomputes, and to repair trees across releases afterwards.
  run_trace_equivalence(fast, reference, 200);
#if NFVM_OBS
  EXPECT_GT(counters.since("graph.sp_repair.trees_repaired"), 0u);
  EXPECT_GT(counters.since("graph.sp_repair.trees_kept"), 0u);
#endif
}

TEST(OnlineFastPath, CpTraceEquivalenceLinearWeights) {
  util::Rng rng(92);
  const topo::Topology topo = topo::make_waxman(40, rng);
  OnlineCpOptions opts;
  opts.linear_weights = true;
  OnlineCp fast(topo, opts);
  OnlineCpRebuild reference(topo, opts);
  run_trace_equivalence(fast, reference, 60);
}

TEST(OnlineFastPath, SpTraceEquivalenceWithDepartures) {
  util::Rng rng(93);
  const topo::Topology topo = topo::make_waxman(60, rng);
  OnlineSp fast(topo);
  OnlineSpRebuild reference(topo);
  run_trace_equivalence(fast, reference, 80);
}

// ---------------------------------------------------------------------------
// Trace equivalence on the nfvm-sim configurations: `--topology geant` and
// `--topology waxman --nodes 100` at `--seed 7`, static (`--requests 120`)
// and dynamic (`--dynamic --requests 600 --mean-duration 300`).
// ---------------------------------------------------------------------------

constexpr std::uint64_t kCliSeed = 7;

/// The network nfvm-sim builds for `--topology <name> --nodes 100`.
topo::Topology cli_topology(const std::string& name) {
  util::Rng rng(kCliSeed);
  if (name == "geant") return topo::make_geant(rng);
  topo::WaxmanOptions wo;
  wo.target_mean_degree = 4.0;
  return topo::make_waxman(100, rng, wo);
}

/// nfvm-sim's static workload (`--requests 120`), processed by both
/// algorithms in lockstep with provenance recording on, as in an nfvm-sim
/// run with an event log.
template <typename Fast, typename Reference>
void check_cli_static(const std::string& topology) {
  const topo::Topology topo = cli_topology(topology);
  util::Rng workload(kCliSeed + 1);
  sim::RequestGenerator gen(topo, workload);
  const std::vector<nfv::Request> requests = gen.sequence(120);
  Fast fast(topo);
  Reference reference(topo);
  fast.set_record_provenance(true);
  reference.set_record_provenance(true);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const AdmissionDecision df = fast.process(requests[i]);
    const AdmissionDecision dr = reference.process(requests[i]);
    expect_same_decision(df, dr, i);
  }
  EXPECT_EQ(fast.num_admitted(), reference.num_admitted());
}

/// nfvm-sim's dynamic workload on Waxman-100 (`--dynamic --requests 600
/// --mean-duration 300`): departures are released in time order before each
/// arrival, exactly as sim::run_online_dynamic does.
template <typename Fast, typename Reference>
void check_cli_dynamic() {
  const topo::Topology topo = cli_topology("waxman");
  util::Rng workload(kCliSeed + 1);
  sim::RequestGenerator gen(topo, workload);
  sim::DynamicWorkloadOptions dyn;
  dyn.mean_duration = 300.0;
  const std::vector<sim::TimedRequest> requests =
      sim::make_poisson_workload(gen, workload, 600, dyn);

  Fast fast(topo);
  Reference reference(topo);
  fast.set_record_provenance(true);
  reference.set_record_provenance(true);
  struct Departure {
    double time;
    nfv::Footprint fast;
    nfv::Footprint reference;
  };
  const auto later = [](const Departure& a, const Departure& b) {
    return a.time > b.time;
  };
  std::priority_queue<Departure, std::vector<Departure>, decltype(later)> active(later);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const sim::TimedRequest& tr = requests[i];
    while (!active.empty() && active.top().time <= tr.arrival_time) {
      fast.release(active.top().fast);
      reference.release(active.top().reference);
      active.pop();
    }
    const AdmissionDecision df = fast.process(tr.request);
    const AdmissionDecision dr = reference.process(tr.request);
    expect_same_decision(df, dr, i);
    if (df.admitted) {
      active.push(Departure{tr.arrival_time + tr.duration, df.footprint, dr.footprint});
    }
  }
  EXPECT_EQ(fast.num_admitted(), reference.num_admitted());
}

#if NFVM_OBS
/// Sum of the repair store's per-tree outcomes since `counters` was taken:
/// zero when no server tree came from the store.
std::uint64_t stored_tree_outcomes(const test::CounterBaseline& counters) {
  return counters.since("graph.sp_repair.trees_kept") +
         counters.since("graph.sp_repair.trees_repaired") +
         counters.since("graph.sp_repair.tie_fallbacks");
}
#endif

TEST(OnlineFastPath, CpMatchesReferenceOnCliGeant) {
  const test::CounterBaseline counters;
  check_cli_static<OnlineCp, OnlineCpRebuild>("geant");
#if NFVM_OBS
  // GEANT's 61 links take the same repair-store path as every other graph.
  EXPECT_GT(stored_tree_outcomes(counters), 0u);
#endif
}

TEST(OnlineFastPath, SpMatchesReferenceOnCliGeant) {
  const test::CounterBaseline counters;
  check_cli_static<OnlineSp, OnlineSpRebuild>("geant");
#if NFVM_OBS
  // SP keeps no repair store: every tree is a fresh breadth-first search
  // on GEANT's unit link weights.
  EXPECT_EQ(stored_tree_outcomes(counters), 0u);
  EXPECT_GT(counters.since("graph.dijkstra.dial_runs"), 0u);
#endif
}

// Every request starts at a server. While that server passes the compute
// gate, one breadth-first tree serves it both as the source and as a
// candidate: a request costs one run per distinct root of {source} ∪ eval,
// and decides exactly like the reference rebuild scan.
TEST(OnlineFastPath, SpComputesOneTreePerDistinctRoot) {
  const topo::Topology topo = cli_topology("geant");
  util::Rng workload(kCliSeed);
  sim::RequestGenerator gen(topo, workload);
  const std::vector<nfv::Request> requests = gen.sequence(300);
  OnlineSp fast(topo);
  OnlineSpRebuild reference(topo);
  std::vector<nfv::Footprint> admitted_fast;
  std::vector<nfv::Footprint> admitted_reference;
  std::size_t shared = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    nfv::Request request = requests[i];
    request.source = topo.servers[i % topo.servers.size()];
    std::erase(request.destinations, request.source);
    if (request.destinations.empty()) continue;
    std::vector<graph::VertexId> roots{request.source};
    bool source_in_eval = false;
    for (const graph::VertexId v : topo.servers) {
      if (fast.resources().residual_compute(v) < request.compute_demand_mhz()) continue;
      if (v == request.source) {
        source_in_eval = true;
      } else {
        roots.push_back(v);
      }
    }
    shared += source_in_eval ? 1 : 0;
    const test::CounterBaseline counters;
    const AdmissionDecision df = fast.process(request);
#if NFVM_OBS
    const bool scanned = source_in_eval || roots.size() > 1;
    EXPECT_EQ(counters.since("graph.dijkstra.runs"), scanned ? roots.size() : 0u)
        << "request " << i;
#endif
    const AdmissionDecision dr = reference.process(request);
    expect_same_decision(df, dr, i);
    if (df.admitted) {
      admitted_fast.push_back(df.footprint);
      admitted_reference.push_back(dr.footprint);
    }
    if (i % 3 == 2 && !admitted_fast.empty()) {
      fast.release(admitted_fast.front());
      reference.release(admitted_reference.front());
      admitted_fast.erase(admitted_fast.begin());
      admitted_reference.erase(admitted_reference.begin());
    }
  }
  EXPECT_GT(shared, 0u);
  EXPECT_GT(fast.num_admitted(), 0u);
}

TEST(OnlineFastPath, CpMatchesReferenceOnCliWaxman100) {
  check_cli_static<OnlineCp, OnlineCpRebuild>("waxman");
}

TEST(OnlineFastPath, SpMatchesReferenceOnCliWaxman100) {
  check_cli_static<OnlineSp, OnlineSpRebuild>("waxman");
}

TEST(OnlineFastPath, CpMatchesReferenceOnCliDynamicWaxman100) {
  const test::CounterBaseline counters;
  check_cli_dynamic<OnlineCp, OnlineCpRebuild>();
#if NFVM_OBS
  // The run leaves the zero-weight warm-up, so releases and admissions are
  // answered by repaired server trees: the comparison covers the repair
  // path, not just full recomputes.
  EXPECT_GT(counters.since("graph.sp_repair.trees_repaired"), 0u);
#endif
}

TEST(OnlineFastPath, SpMatchesReferenceOnCliDynamicWaxman100) {
  check_cli_dynamic<OnlineSp, OnlineSpRebuild>();
}

#if NFVM_OBS
/// nfvm-sim's dynamic GEANT workload (`--topology geant --dynamic
/// --requests 2000 --arrival-rate 5 --mean-duration 40 --seed 7`) through
/// one algorithm with provenance on. The scans price every candidate and
/// assemble a pseudo-tree only for those that pass the cost prune, i.e.
/// that reach the delay check, so `core.online.trees_assembled` equals
/// candidates_feasible + failed_delay + failed_capacity summed over the
/// request records, and the prune must have spared some assemblies.
template <typename Algo>
void check_trees_assembled_on_cli_geant() {
  const topo::Topology topo = cli_topology("geant");
  util::Rng workload(kCliSeed + 1);
  sim::RequestGenerator gen(topo, workload);
  sim::DynamicWorkloadOptions dyn;
  dyn.arrival_rate = 5.0;
  dyn.mean_duration = 40.0;
  const std::vector<sim::TimedRequest> requests =
      sim::make_poisson_workload(gen, workload, 2000, dyn);

  Algo algo(topo);
  algo.set_record_provenance(true);
  const test::CounterBaseline counters;
  using Departure = std::pair<double, nfv::Footprint>;
  const auto later = [](const Departure& a, const Departure& b) {
    return a.first > b.first;
  };
  std::priority_queue<Departure, std::vector<Departure>, decltype(later)> active(later);
  std::uint64_t reached_delay_check = 0;
  std::uint64_t cost_pruned = 0;
  for (const sim::TimedRequest& tr : requests) {
    while (!active.empty() && active.top().first <= tr.arrival_time) {
      algo.release(active.top().second);
      active.pop();
    }
    const AdmissionDecision decision = algo.process(tr.request);
    ASSERT_NE(decision.record, nullptr);
    const RequestRecord& rec = *decision.record;
    reached_delay_check +=
        rec.candidates_feasible + rec.failed_delay + rec.failed_capacity;
    cost_pruned += rec.cost_pruned;
    if (decision.admitted) {
      active.emplace(tr.arrival_time + tr.duration, decision.footprint);
    }
  }
  EXPECT_EQ(counters.since("core.online.trees_assembled"), reached_delay_check);
  EXPECT_GT(cost_pruned, 0u);
}

TEST(OnlineFastPath, SpAssemblesTreesOnlyForPruneSurvivorsOnCliGeant) {
  check_trees_assembled_on_cli_geant<OnlineSp>();
}

TEST(OnlineFastPath, SpStaticAndCpAssembleTreesOnlyForPruneSurvivorsOnCliGeant) {
  check_trees_assembled_on_cli_geant<OnlineSpStatic>();
  check_trees_assembled_on_cli_geant<OnlineCp>();
}
#endif

// ---------------------------------------------------------------------------
// OnlineWeightedView: Online_CP's weighted graph and its repair store
// ---------------------------------------------------------------------------

/// Triangle 0-1-2 (0-2 direct more expensive than 0-1 + 1-2) plus a tail
/// 2-3: the tree from 1 never contains edge 0-2, the tree from 0 does.
/// Every vertex is a server, so every tree is kept by the repair store.
topo::Topology triangle_tail_topology() {
  topo::Topology t;
  t.name = "triangle_tail";
  t.graph = graph::Graph(4);
  t.graph.add_edge(0, 1, 1.0);  // e0
  t.graph.add_edge(1, 2, 1.0);  // e1
  t.graph.add_edge(0, 2, 1.5);  // e2
  t.graph.add_edge(2, 3, 1.0);  // e3
  t.servers = {0, 1, 2, 3};
  t.link_bandwidth = {1000, 1000, 1000, 1000};
  t.server_compute = {8000, 8000, 8000, 8000};
  return t;
}

/// A link weight as a pure function of the residuals: the static link
/// weight plus the consumed bandwidth in thousandths, so allocations move
/// exactly the touched edges.
double consumption_weight(const topo::Topology& topo,
                          const nfv::ResourceState& state, graph::EdgeId e) {
  const double consumed = topo.link_bandwidth[e] - state.residual_bandwidth(e);
  return topo.graph.weight(e) + consumed / 1000.0;
}

/// A residual-independent link weight.
double static_weight(const topo::Topology& topo, const nfv::ResourceState& /*state*/,
                     graph::EdgeId e) {
  return topo.graph.weight(e);
}

/// What Online_CP keeps for its scan, driven directly: a mirror of the
/// topology's links (same ids, same adjacency order) whose weights the test
/// sets from the ResourceState, and the repair store of the trees from
/// every server.
struct ServerTrees {
  using LinkWeight = double (*)(const topo::Topology&, const nfv::ResourceState&,
                                graph::EdgeId);

  ServerTrees(const topo::Topology& topo, const nfv::ResourceState& state,
              LinkWeight weight)
      : topo(&topo), state(&state), weight(weight),
        graph(topo.graph.num_vertices()), store(topo.servers) {
    for (graph::EdgeId e = 0; e < topo.graph.num_edges(); ++e) {
      const graph::Edge& ed = topo.graph.edge(e);
      graph.add_edge(ed.u, ed.v, weight(topo, state, e));
    }
  }

  /// Re-reads every link weight from the residuals, then brings the trees
  /// from `sources` up to date over the links eligible at `b`, as Online_CP
  /// does before a scan.
  const graph::SpTreeStore& update(std::span<const graph::VertexId> sources,
                                   double b) {
    for (graph::EdgeId e = 0; e < graph.num_edges(); ++e) {
      const double w = weight(*topo, *state, e);
      if (graph.weight(e) != w) graph.set_weight(e, w);
    }
    nfv::fill_eligibility_mask(*state, topo->graph, b, mask);
    store.update(graph, sources, mask);
    return store;
  }

  const topo::Topology* topo;
  const nfv::ResourceState* state;
  LinkWeight weight;
  graph::Graph graph;
  graph::SpTreeStore store;
  std::vector<std::uint8_t> mask;
};

/// The tree every stored one must equal: a fresh masked Dijkstra, with the
/// mask built from the same nfv::edge_eligible predicate.
void expect_fresh(const graph::Graph& g, const nfv::ResourceState& state,
                  const graph::ShortestPaths& tree, double b) {
  std::vector<std::uint8_t> mask(g.num_edges());
  for (graph::EdgeId e = 0; e < mask.size(); ++e) {
    mask[e] = nfv::edge_eligible(state, g, e, b) ? 1 : 0;
  }
  graph::SpEngine engine;
  const graph::ShortestPaths fresh =
      reference::shortest_paths_masked(engine, g, tree.source, mask);
  EXPECT_EQ(tree.dist, fresh.dist) << "source " << tree.source;
  EXPECT_EQ(tree.parent, fresh.parent) << "source " << tree.source;
  EXPECT_EQ(tree.parent_edge, fresh.parent_edge) << "source " << tree.source;
}

TEST(OnlineWeightedView, PatchRepairsOnlyTreesContainingChangedEdges) {
  const topo::Topology topo = triangle_tail_topology();
  nfv::ResourceState state(topo);
  ServerTrees view(topo, state, consumption_weight);

  const std::vector<graph::VertexId> sources = {0, 1};
  const graph::SpTreeStore& trees = view.update(sources, 50.0);
  // Tree from 0 uses e2 (1.5 < 1+1); tree from 1 reaches everything through
  // e0/e1/e3.
  ASSERT_EQ(trees.from(0).parent_edge[2], 2u);
  ASSERT_EQ(trees.from(1).parent_edge[2], 1u);

  nfv::Footprint fp;
  fp.bandwidth = {{2, 100.0}};  // consume on e2 only
  state.allocate(fp);

  const test::CounterBaseline counters;
  view.update(sources, 50.0);
#if NFVM_OBS
  // e2 is a tree edge of the tree from 0: repaired in place. The tree from
  // 1 only saw a non-tree increase: kept. Nothing is recomputed.
  EXPECT_EQ(counters.since("graph.sp_repair.trees_repaired"), 1u);
  EXPECT_EQ(counters.since("graph.sp_repair.trees_kept"), 1u);
  EXPECT_EQ(counters.since("graph.sp_repair.tie_fallbacks"), 0u);
  EXPECT_EQ(counters.since("graph.dijkstra.runs"), 0u);
#endif
  expect_fresh(view.graph, state, trees.from(0), 50.0);
  expect_fresh(view.graph, state, trees.from(1), 50.0);
  // e2 now costs 1.6, so the path 0-1-2 (2.0) still loses; bump it past
  // 2.0 and the repaired tree reroutes.
  nfv::Footprint fp2;
  fp2.bandwidth = {{2, 500.0}};
  state.allocate(fp2);
  view.update(sources, 50.0);
  EXPECT_EQ(trees.from(0).parent_edge[2], 1u);  // rerouted around the hot link
  expect_fresh(view.graph, state, trees.from(0), 50.0);
  expect_fresh(view.graph, state, trees.from(1), 50.0);
}

TEST(OnlineWeightedView, AllocationWithoutWeightChangeKeepsTree) {
  const topo::Topology topo = triangle_tail_topology();
  nfv::ResourceState state(topo);
  // Residual-independent weights: allocations that leave every edge
  // eligible change nothing the tree can see.
  ServerTrees view(topo, state, static_weight);
  const std::vector<graph::VertexId> sources = {0};
  view.update(sources, 50.0);
  nfv::Footprint fp;
  fp.bandwidth = {{0, 100.0}, {1, 100.0}, {2, 100.0}, {3, 100.0}};
  state.allocate(fp);
  const test::CounterBaseline counters;
  const graph::SpTreeStore& trees = view.update(sources, 50.0);
#if NFVM_OBS
  EXPECT_EQ(counters.since("graph.sp_repair.trees_kept"), 1u);
  EXPECT_EQ(counters.since("graph.sp_repair.trees_repaired"), 0u);
  EXPECT_EQ(counters.since("graph.dijkstra.runs"), 0u);
#endif
  expect_fresh(view.graph, state, trees.from(0), 50.0);
}

TEST(OnlineWeightedView, ReleaseRepairsTreesInsteadOfDropping) {
  const topo::Topology topo = triangle_tail_topology();
  nfv::ResourceState state(topo);
  ServerTrees view(topo, state, consumption_weight);
  const std::vector<graph::VertexId> sources = {0, 3};
  view.update(sources, 50.0);

  // Make e2 expensive enough to reroute the tree from 0, then release it.
  nfv::Footprint fp;
  fp.bandwidth = {{2, 600.0}};
  state.allocate(fp);
  const graph::SpTreeStore& trees = view.update(sources, 50.0);
  ASSERT_EQ(trees.from(0).parent_edge[2], 1u);
  state.release(fp);
  const test::CounterBaseline counters;
  view.update(sources, 50.0);
#if NFVM_OBS
  // Both trees are repaired from the release's weight decrease; nothing is
  // recomputed.
  EXPECT_EQ(counters.since("graph.dijkstra.runs"), 0u);
  EXPECT_EQ(counters.since("graph.sp_repair.trees_repaired"), 2u);
#endif
  // The store still holds both trees: an unchanged graph keeps them as
  // they are. The one from 0 is back on e2 and identical to a fresh run.
  const test::CounterBaseline again;
  view.update(sources, 50.0);
#if NFVM_OBS
  EXPECT_EQ(again.since("graph.sp_repair.trees_kept"), 2u);
  EXPECT_EQ(again.since("graph.dijkstra.runs"), 0u);
#endif
  EXPECT_EQ(trees.from(0).parent_edge[2], 2u);
  expect_fresh(view.graph, state, trees.from(0), 50.0);
  expect_fresh(view.graph, state, trees.from(3), 50.0);
}

TEST(OnlineWeightedView, LowerBandwidthThresholdRepairsTree) {
  const topo::Topology topo = triangle_tail_topology();
  nfv::ResourceState state(topo);
  ServerTrees view(topo, state, consumption_weight);
  nfv::Footprint fp;
  fp.bandwidth = {{2, 920.0}};  // 80 left on e2
  state.allocate(fp);
  const std::vector<graph::VertexId> sources = {0};
  const graph::SpTreeStore& trees = view.update(sources, 100.0);
  ASSERT_EQ(trees.from(0).parent_edge[2], 1u);  // e2 ineligible at b = 100
  // b' < b_T: e2 becomes eligible again (an effective-weight decrease).
  view.update(sources, 50.0);
  expect_fresh(view.graph, state, trees.from(0), 50.0);
  // Back up to b' >= b_T: e2 drops out again.
  view.update(sources, 90.0);
  EXPECT_EQ(trees.from(0).parent_edge[2], 1u);
  expect_fresh(view.graph, state, trees.from(0), 90.0);
}

TEST(OnlineWeightedView, IneligibleTreeEdgeIsRepaired) {
  const topo::Topology topo = triangle_tail_topology();
  nfv::ResourceState state(topo);
  ServerTrees view(topo, state, static_weight);
  const std::vector<graph::VertexId> sources = {0};
  const graph::SpTreeStore& trees = view.update(sources, 50.0);
  ASSERT_EQ(trees.from(0).parent_edge[2], 2u);  // uses e2
  // Starve e2 below the request bandwidth WITHOUT changing weights (weights
  // are residual-independent here), so only the eligibility diff can
  // notice.
  nfv::Footprint fp;
  fp.bandwidth = {{2, 960.0}};
  state.allocate(fp);
  const test::CounterBaseline counters;
  view.update(sources, 50.0);
#if NFVM_OBS
  EXPECT_EQ(counters.since("graph.sp_repair.trees_kept"), 0u);
  EXPECT_EQ(counters.since("graph.sp_repair.trees_repaired"), 1u);
#endif
  EXPECT_EQ(trees.from(0).parent_edge[2], 1u);  // rerouted: e2 now ineligible
  expect_fresh(view.graph, state, trees.from(0), 50.0);
}

/// The unit square 0-1-3 / 0-2-3 with a chord 1-2: from 0, vertex 3 has two
/// tight in-neighbours at one distance, so the tree is not tie-free.
topo::Topology tied_square_topology() {
  topo::Topology t;
  t.name = "tied_square";
  t.graph = graph::Graph(4);
  t.graph.add_edge(0, 1, 1.0);  // e0
  t.graph.add_edge(0, 2, 1.0);  // e1
  t.graph.add_edge(1, 3, 1.0);  // e2
  t.graph.add_edge(2, 3, 1.0);  // e3
  t.graph.add_edge(1, 2, 1.0);  // e4: never on a tree from 0
  t.servers = {0};
  t.link_bandwidth = {1000, 1000, 1000, 1000, 1000};
  t.server_compute = {8000, 0, 0, 0};
  return t;
}

TEST(OnlineWeightedView, NonTreeIncreaseKeepsTreeWithTies) {
  const topo::Topology topo = tied_square_topology();
  nfv::ResourceState state(topo);
  ServerTrees view(topo, state, consumption_weight);
  const std::vector<graph::VertexId> sources = {0};
  const test::CounterBaseline counters;
  const graph::SpTreeStore& trees = view.update(sources, 50.0);
  ASSERT_EQ(trees.from(0).dist[3], 2.0);

  // Raise the chord (a non-tree edge): kept as is, ties and all.
  nfv::Footprint chord;
  chord.bandwidth = {{4, 300.0}};
  state.allocate(chord);
  view.update(sources, 50.0);
  expect_fresh(view.graph, state, trees.from(0), 50.0);

  // Lower it again: a decrease on a tree with ties cannot be repaired
  // locally, so the tree is recomputed in full (and still exact).
  state.release(chord);
  view.update(sources, 50.0);
  expect_fresh(view.graph, state, trees.from(0), 50.0);
#if NFVM_OBS
  EXPECT_EQ(counters.since("graph.sp_repair.trees_kept"), 1u);
  EXPECT_EQ(counters.since("graph.sp_repair.tie_fallbacks"), 1u);
  EXPECT_EQ(counters.since("graph.sp_repair.trees_repaired"), 0u);
#endif
}

TEST(OnlineWeightedView, AfterRestoreDropsStore) {
  // A restore installs residuals wholesale; OnlineCp::after_restore
  // re-reads every weight and drops every stored tree. The first request after the
  // restore therefore computes all its trees fresh — and decides exactly
  // like a twin that never restored.
  util::Rng rng(95);
  const topo::Topology topo = topo::make_waxman(60, rng);
  util::Rng workload(96);
  sim::RequestGenerator gen(topo, workload);
  const std::vector<nfv::Request> requests = gen.sequence(60);
  OnlineCp live(topo);
  OnlineCp restored(topo);
  for (std::size_t i = 0; i + 1 < requests.size(); ++i) {
    live.process(requests[i]);
    restored.process(requests[i]);
  }
  restored.restore_resources(live.resources().export_residuals());
  const test::CounterBaseline counters;
  const AdmissionDecision a = restored.process(requests.back());
#if NFVM_OBS
  EXPECT_EQ(counters.since("graph.sp_repair.trees_kept"), 0u);
  EXPECT_EQ(counters.since("graph.sp_repair.trees_repaired"), 0u);
  EXPECT_GT(counters.since("graph.dijkstra.runs"), 0u);
#endif
  const AdmissionDecision b = live.process(requests.back());
  expect_same_decision(a, b, requests.size() - 1);
}

// ---------------------------------------------------------------------------
// RejectTracker precedence
// ---------------------------------------------------------------------------

TEST(RejectTracker, DefaultsToConstructorValue) {
  const RejectTracker t("nothing yet", RejectCause::kCompute);
  EXPECT_EQ(t.reason(), "nothing yet");
  EXPECT_EQ(t.cause(), RejectCause::kCompute);
  EXPECT_EQ(t.rank(), RejectTracker::kRankDefault);
}

TEST(RejectTracker, ThresholdOverridesDefaultOnly) {
  RejectTracker t("default", RejectCause::kCompute);
  t.update(RejectTracker::kRankThreshold, "threshold", RejectCause::kThreshold);
  EXPECT_EQ(t.reason(), "threshold");
  t.update(RejectTracker::kRankCandidate, "candidate", RejectCause::kDelay);
  EXPECT_EQ(t.reason(), "candidate");
  // A later threshold gate can no longer override an evaluated candidate's
  // failure (the old string-compare special case, now explicit).
  t.update(RejectTracker::kRankThreshold, "threshold again",
           RejectCause::kThreshold);
  EXPECT_EQ(t.reason(), "candidate");
  EXPECT_EQ(t.cause(), RejectCause::kDelay);
}

TEST(RejectTracker, EqualRankIsLastWriterWins) {
  RejectTracker t("default", RejectCause::kCompute);
  t.update(RejectTracker::kRankCandidate, "first", RejectCause::kBandwidth);
  t.update(RejectTracker::kRankCandidate, "second", RejectCause::kDelay);
  EXPECT_EQ(t.reason(), "second");
  EXPECT_EQ(t.cause(), RejectCause::kDelay);
}

}  // namespace
}  // namespace nfvm::core
