// Micro-benchmark for the shortest-path engine overhaul:
//
//   * adjacency-list Dijkstra (the historical implementation, kept here as
//     the reference) vs the CSR-backed SpEngine,
//   * the breadth-first search (auto-selected on unit-weight graphs) vs the
//     radix queue's Dijkstra on a non-integer-weight clone,
//   * batched multi-source SSSP (graph::TreeTable::compute, one pool task
//     per tree) vs the equivalent per-source engine loop,
//   * APSP builds at 1 / 2 / 4 worker threads (the test-only
//     reference::AllPairsShortestPaths, which fans sources out on the pool),
//   * Online_SP's closure on GEANT: per request, one table of breadth-first
//     trees from a source and the nine servers under a fresh link mask,
//   * Online_CP's fresh trees on Waxman-400: per request, one table of
//     weighted trees from a source and twenty destinations under a fresh
//     link mask, on exponential-cost weights with many links at zero.
//
// Every row carries a dist_checksum — the sum of finite shortest-path
// distances produced by that case (cp_closure_waxman400 adds a hash of
// every tree's parent edges, so a changed tie order shows too). The checksums are bit-deterministic, so
// the CI artifact gate (nfvm-report --check) verifies engine/reference and
// cross-thread-count agreement on every run; timing columns (*_ms, *time*,
// the per-row time_ratio) are machine-dependent and excluded from gating.
// The binary itself also exits non-zero when the engine disagrees with the
// reference, when auto-selection picks the wrong implementation, or
// when the batched tables diverge from the sequential ones.
#include <cmath>
#include <numeric>
#include <queue>

#include "bench_common.h"
#include "graph/sp_engine.h"
#include "reference/apsp.h"
#include "topology/geant.h"
#include "util/thread_pool.h"

namespace {

using namespace nfvm;

/// The pre-overhaul Dijkstra, verbatim modulo instrumentation: binary heap
/// of (distance, vertex) pairs over the pointer-chasing adjacency lists.
graph::ShortestPaths adjacency_dijkstra(const graph::Graph& g,
                                        graph::VertexId source) {
  const std::size_t n = g.num_vertices();
  graph::ShortestPaths sp;
  sp.source = source;
  sp.dist.assign(n, graph::kInfiniteDistance);
  sp.parent.assign(n, graph::kInvalidVertex);
  sp.parent_edge.assign(n, graph::kInvalidEdge);
  sp.dist[source] = 0.0;

  using Item = std::pair<double, graph::VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > sp.dist[u]) continue;
    for (const graph::Adjacency& adj : g.neighbors(u)) {
      const double nd = d + g.edge(adj.edge).weight;
      if (nd < sp.dist[adj.neighbor]) {
        sp.dist[adj.neighbor] = nd;
        sp.parent[adj.neighbor] = u;
        sp.parent_edge[adj.neighbor] = adj.edge;
        heap.emplace(nd, adj.neighbor);
      }
    }
  }
  return sp;
}

double tree_checksum(const graph::ShortestPaths& sp) {
  double sum = 0.0;
  for (double d : sp.dist) {
    if (d < graph::kInfiniteDistance) sum += d;
  }
  return sum;
}

/// A polynomial hash of the tree's parent edges modulo a prime: any one
/// changed entry moves it.
double parent_edge_hash(const graph::ShortestPaths& sp) {
  constexpr std::uint64_t kPrime = 1'000'003;
  std::uint64_t h = 0;
  for (const graph::EdgeId e : sp.parent_edge) {
    h = (h * 31 + std::uint64_t{e} + 1) % kPrime;
  }
  return static_cast<double>(h);
}

double apsp_checksum(const reference::AllPairsShortestPaths& apsp) {
  double sum = 0.0;
  for (graph::VertexId u = 0; u < apsp.num_vertices(); ++u) {
    for (graph::VertexId v = 0; v < apsp.num_vertices(); ++v) {
      const double d = apsp.distance(u, v);
      if (d < graph::kInfiniteDistance) sum += d;
    }
  }
  return sum;
}

}  // namespace

int main() {
  constexpr std::size_t kNodes = 200;
  constexpr std::size_t kSssspSources = 50;  // full-tree comparison sweep
  constexpr std::size_t kClosureRequests = 2000;  // sp_closure_geant
  constexpr std::size_t kCpRequests = 200;         // cp_closure_waxman400
  constexpr std::size_t kCpDestinations = 20;

  std::cout << "# micro: CSR SpEngine vs adjacency Dijkstra, breadth-first search, batched "
               "SSSP, parallel APSP, Online_SP's GEANT closure, Online_CP's fresh "
               "trees\n";
  std::cout << "# dist_checksum columns are deterministic and gate in CI; "
               "*_ms / *time* columns do not\n";

  util::Rng rng(4242);
  const topo::Topology topo = bench::make_sweep_topology(kNodes, rng);
  const graph::Graph& g = topo.graph;
  const std::size_t m = g.num_edges();

  // time_ratio is per-case: heap/BFS for the BFS row, sequential/batched
  // for the batch row; 0 elsewhere.
  util::Table table({"case", "n", "m", "reps", "time_ms", "dist_checksum",
                     "time_ratio"});
  const auto graph_row = [&](const std::string& name, const graph::Graph& on,
                             std::size_t reps, double ms, double checksum,
                             double speedup) {
    table.begin_row()
        .add(name)
        .add(on.num_vertices())
        .add(on.num_edges())
        .add(reps)
        .add(ms, 3)
        .add(checksum, 3)
        .add(speedup, 2);
  };
  const auto row = [&](const std::string& name, std::size_t reps, double ms,
                       double checksum, double speedup) {
    graph_row(name, g, reps, ms, checksum, speedup);
  };

  // --- adjacency reference vs CSR engine --------------------------------
  double ref_checksum = 0.0;
  double engine_checksum = 0.0;
  {
    util::Stopwatch watch;
    for (graph::VertexId s = 0; s < kSssspSources; ++s) {
      ref_checksum += tree_checksum(adjacency_dijkstra(g, s));
    }
    row("adjacency_dijkstra", kSssspSources, watch.elapsed_ms(), ref_checksum, 0.0);
  }
  {
    graph::SpEngine engine;
    util::Stopwatch watch;
    for (graph::VertexId s = 0; s < kSssspSources; ++s) {
      engine_checksum += tree_checksum(engine.shortest_paths(g, s));
    }
    row("csr_engine_dijkstra", kSssspSources, watch.elapsed_ms(), engine_checksum,
        0.0);
  }
  if (engine_checksum != ref_checksum) {
    std::cerr << "FATAL: SpEngine disagrees with the adjacency reference\n";
    return 1;
  }

  // --- breadth-first search vs the radix queue ---------------------------
  // The sweep topology is unit-weight, so the engine rows above already ran
  // the breadth-first search; these rows pin the auto-selection rule
  // explicitly and time the queue's Dijkstra on a non-integer-weight clone
  // of the topology (the heap_fractional_weight row keeps its old name).
  {
    graph::Graph frac(g.num_vertices());
    for (graph::EdgeId e = 0; e < m; ++e) {
      const graph::Edge& ed = g.edge(e);
      frac.add_edge(ed.u, ed.v, 1.0 + static_cast<double>(e % 7) * 0.1);
    }

    graph::SpEngine bfs_engine;
    double bfs_checksum = 0.0;
    util::Stopwatch bfs_watch;
    for (graph::VertexId s = 0; s < kSssspSources; ++s) {
      bfs_checksum += tree_checksum(bfs_engine.shortest_paths(g, s));
    }
    const double bfs_ms = bfs_watch.elapsed_ms();
    if (!bfs_engine.last_used_bfs()) {
      std::cerr << "FATAL: unit-weight graph did not select the breadth-first search\n";
      return 1;
    }
    if (bfs_checksum != ref_checksum) {
      std::cerr << "FATAL: breadth-first search disagrees with the adjacency reference\n";
      return 1;
    }

    graph::SpEngine heap_engine;
    double frac_checksum = 0.0;
    util::Stopwatch frac_watch;
    for (graph::VertexId s = 0; s < kSssspSources; ++s) {
      frac_checksum += tree_checksum(heap_engine.shortest_paths(frac, s));
    }
    const double frac_ms = frac_watch.elapsed_ms();
    if (heap_engine.last_used_bfs()) {
      std::cerr << "FATAL: non-integer weights selected the breadth-first search\n";
      return 1;
    }
    double frac_ref = 0.0;
    for (graph::VertexId s = 0; s < kSssspSources; ++s) {
      frac_ref += tree_checksum(adjacency_dijkstra(frac, s));
    }
    if (frac_checksum != frac_ref) {
      std::cerr << "FATAL: the radix queue disagrees with the adjacency reference\n";
      return 1;
    }
    row("bfs_unit_weight", kSssspSources, bfs_ms, bfs_checksum,
        bfs_ms > 0.0 ? frac_ms / bfs_ms : 0.0);
    row("heap_fractional_weight", kSssspSources, frac_ms, frac_checksum, 0.0);
  }

  // --- batched multi-source SSSP vs per-source engine calls -------------
  {
    std::vector<graph::VertexId> sources(kSssspSources);
    std::iota(sources.begin(), sources.end(), graph::VertexId{0});

    graph::SpEngine engine;
    double seq_checksum = 0.0;
    util::Stopwatch seq_watch;
    for (graph::VertexId s : sources) {
      seq_checksum += tree_checksum(engine.shortest_paths(g, s));
    }
    const double seq_ms = seq_watch.elapsed_ms();

    util::ThreadPool::set_global_threads(4);
    graph::TreeTable table;
    util::Stopwatch batch_watch;
    table.compute(g, sources);
    const double batch_ms = batch_watch.elapsed_ms();
    util::ThreadPool::set_global_threads(1);

    double batch_checksum = 0.0;
    for (graph::VertexId s : sources) batch_checksum += tree_checksum(table.from(s));
    if (batch_checksum != seq_checksum) {
      std::cerr << "FATAL: batched SSSP diverged from the sequential loop\n";
      return 1;
    }
    row("sssp_sequential", kSssspSources, seq_ms, seq_checksum, 0.0);
    row("sssp_batched_t4", kSssspSources, batch_ms, batch_checksum,
        batch_ms > 0.0 ? seq_ms / batch_ms : 0.0);
  }

  // --- APSP at 1 / 2 / 4 threads ----------------------------------------
  for (std::size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool::set_global_threads(threads);
    util::Stopwatch watch;
    const reference::AllPairsShortestPaths apsp(g);
    row("apsp_threads_" + std::to_string(threads), g.num_vertices(),
        watch.elapsed_ms(), apsp_checksum(apsp), 0.0);
  }
  util::ThreadPool::set_global_threads(1);

  // --- Online_SP's closure on GEANT ----------------------------------------
  // What Online_SP computes per request, with the link eligibility drawn
  // instead of read from residuals: one table, cleared, then the trees from
  // a seeded source and the nine servers (one tree when the source is a
  // server) under a fresh mask allowing about 90% of the links. The masks
  // and sources are drawn before the clock starts.
  {
    util::Rng geant_rng(4343);
    const topo::Topology geant = topo::make_geant(geant_rng);
    const graph::Graph& gg = geant.graph;
    std::vector<std::vector<std::uint8_t>> masks(kClosureRequests);
    std::vector<std::vector<graph::VertexId>> roots(kClosureRequests);
    for (std::size_t r = 0; r < kClosureRequests; ++r) {
      masks[r].resize(gg.num_edges());
      for (std::uint8_t& allowed : masks[r]) allowed = geant_rng.bernoulli(0.9) ? 1 : 0;
      roots[r].push_back(
          static_cast<graph::VertexId>(geant_rng.next_below(gg.num_vertices())));
      roots[r].insert(roots[r].end(), geant.servers.begin(), geant.servers.end());
    }
    graph::TreeTable closure;
    double closure_ms = 0.0;
    double closure_checksum = 0.0;
    for (std::size_t r = 0; r < kClosureRequests; ++r) {
      util::Stopwatch watch;
      closure.clear();
      closure.compute(gg, roots[r], masks[r]);
      closure_ms += watch.elapsed_ms();
      for (const graph::VertexId root : roots[r]) {
        closure_checksum += tree_checksum(closure.from(root));
      }
    }
    graph_row("sp_closure_geant", gg, kClosureRequests, closure_ms, closure_checksum,
              0.0);
  }

  // --- Online_CP's fresh trees on Waxman-400 --------------------------------
  // What Online_CP's scan computes fresh per request, with the link weights
  // and the eligibility drawn: Waxman-400 at mean degree 4 with
  // exponential-cost weights alpha^(0.6 u) - 1 (alpha = 800), about 40% of
  // the links idle at exactly 0 (ties on zero-weight plateaus); per request
  // one table, cleared, then the trees from a seeded source and twenty
  // destinations under a fresh mask allowing about 90% of the links. The
  // weights, masks and roots are drawn before the clock starts.
  {
    util::Rng cp_rng(4444);
    topo::Topology wax = bench::make_sweep_topology(400, cp_rng);
    graph::Graph& wg = wax.graph;
    for (graph::EdgeId e = 0; e < wg.num_edges(); ++e) {
      wg.set_weight(e, cp_rng.bernoulli(0.4)
                           ? 0.0
                           : std::pow(800.0, 0.6 * cp_rng.uniform_real(0.0, 1.0)) - 1.0);
    }
    std::vector<std::vector<std::uint8_t>> masks(kCpRequests);
    std::vector<std::vector<graph::VertexId>> roots(kCpRequests);
    for (std::size_t r = 0; r < kCpRequests; ++r) {
      masks[r].resize(wg.num_edges());
      for (std::uint8_t& allowed : masks[r]) allowed = cp_rng.bernoulli(0.9) ? 1 : 0;
      for (const std::size_t v :
           cp_rng.sample_without_replacement(wg.num_vertices(), kCpDestinations + 1)) {
        roots[r].push_back(static_cast<graph::VertexId>(v));
      }
    }
    graph::TreeTable closure;
    double closure_ms = 0.0;
    double closure_checksum = 0.0;
    for (std::size_t r = 0; r < kCpRequests; ++r) {
      util::Stopwatch watch;
      closure.clear();
      closure.compute(wg, roots[r], masks[r]);
      closure_ms += watch.elapsed_ms();
      for (const graph::VertexId root : roots[r]) {
        closure_checksum += tree_checksum(closure.from(root)) +
                            parent_edge_hash(closure.from(root));
      }
    }
    graph_row("cp_closure_waxman400", wg, kCpRequests, closure_ms, closure_checksum,
              0.0);
  }

  bench::finish("micro_sp_engine", table);
  return 0;
}
