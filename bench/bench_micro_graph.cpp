// Micro-benchmarks for the graph substrate (google-benchmark): the inner
// loops every figure-level benchmark is built from.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/appro_multi.h"
#include "core/cost_model.h"
#include "graph/dijkstra.h"
#include "graph/steiner.h"
#include "graph/tree.h"
#include "graph/union_find.h"
#include "reference/exact_steiner.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace {

using namespace nfvm;

topo::Topology sweep_topology(std::size_t n) {
  util::Rng rng(n);
  topo::WaxmanOptions opts;
  opts.target_mean_degree = 4.0;
  return topo::make_waxman(n, rng, opts);
}

void BM_Dijkstra(benchmark::State& state) {
  const topo::Topology topo = sweep_topology(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::dijkstra(topo.graph, 0));
  }
}
BENCHMARK(BM_Dijkstra)->Arg(50)->Arg(100)->Arg(250);

void BM_KmbSteiner(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const topo::Topology topo = sweep_topology(n);
  util::Rng rng(9);
  std::vector<graph::VertexId> terminals;
  for (std::size_t p : rng.sample_without_replacement(n, 10)) {
    terminals.push_back(static_cast<graph::VertexId>(p));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::kmb_steiner(topo.graph, terminals));
  }
}
BENCHMARK(BM_KmbSteiner)->Arg(50)->Arg(100)->Arg(250);

void BM_ExactSteiner(benchmark::State& state) {
  const topo::Topology topo = sweep_topology(30);
  util::Rng rng(9);
  std::vector<graph::VertexId> terminals;
  for (std::size_t p :
       rng.sample_without_replacement(30, static_cast<std::size_t>(state.range(0)))) {
    terminals.push_back(static_cast<graph::VertexId>(p));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::exact_steiner(topo.graph, terminals));
  }
}
BENCHMARK(BM_ExactSteiner)->Arg(4)->Arg(6)->Arg(8);

void BM_RootedTreeBuildAndLca(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const topo::Topology topo = sweep_topology(n);
  util::Rng rng(5);
  std::vector<graph::VertexId> terminals;
  for (std::size_t p : rng.sample_without_replacement(n, 8)) {
    terminals.push_back(static_cast<graph::VertexId>(p));
  }
  const graph::SteinerResult st = graph::kmb_steiner(topo.graph, terminals);
  for (auto _ : state) {
    const graph::RootedTree rt(topo.graph, st.edges, terminals[0]);
    benchmark::DoNotOptimize(rt.lca(std::span<const graph::VertexId>(terminals)));
  }
}
BENCHMARK(BM_RootedTreeBuildAndLca)->Arg(100)->Arg(250);

void BM_UnionFind(benchmark::State& state) {
  util::Rng rng(3);
  const std::size_t n = 1000;
  for (auto _ : state) {
    graph::UnionFind uf(n);
    for (int i = 0; i < 2000; ++i) {
      uf.unite(rng.next_below(n), rng.next_below(n));
    }
    benchmark::DoNotOptimize(uf.num_sets());
  }
}
BENCHMARK(BM_UnionFind);

void BM_WaxmanGeneration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    util::Rng rng(seed++);
    topo::WaxmanOptions opts;
    opts.target_mean_degree = 4.0;
    benchmark::DoNotOptimize(topo::make_waxman(n, rng, opts));
  }
}
BENCHMARK(BM_WaxmanGeneration)->Arg(50)->Arg(250);

void BM_ApproMultiSingleRequest(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const topo::Topology topo = sweep_topology(100);
  util::Rng rng(13);
  const core::LinearCosts costs = core::random_costs(topo, rng);
  nfv::Request request;
  request.id = 1;
  request.source = 0;
  request.destinations = {10, 30, 50, 70, 90};
  request.bandwidth_mbps = 120.0;
  request.chain = nfv::ServiceChain({nfv::NetworkFunction::kFirewall});
  for (auto _ : state) {
    core::ApproMultiOptions opts;
    opts.max_servers = k;
    benchmark::DoNotOptimize(core::appro_multi(topo, costs, request, opts));
  }
}
BENCHMARK(BM_ApproMultiSingleRequest)->Arg(1)->Arg(2)->Arg(3);

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  // google-benchmark owns the per-benchmark table (use --benchmark_format=
  // json for those numbers); the BENCH artifact records the instrumentation
  // counters the inner loops accumulated, comparable with nfvm-report.
  nfvm::bench::write_artifact("micro_graph", nfvm::util::Table({"benchmark"}));
  return 0;
}
