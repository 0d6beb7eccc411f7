// Randomized oracle for the KMB finishing kernel (graph/kmb_kernel.h).
//
// Every entry point that finishes a KMB tree — kmb_steiner,
// kmb_steiner_from_tables and core::SharedComboSolver — must reproduce the
// node-based-set / kruskal_mst_subset / leaf-pruning pipeline it replaced
// (tests/reference) bit for bit: the same edges in the same order, the same
// weight bits and the same exceptions. Inputs are random multigraphs with
// parallel edges and self-loops, weights drawn from {0, 1, 2} (ties and
// zeros) or from the reals, disconnected unions, and terminal lists with
// duplicates or a single vertex. Every comparison runs at 1 and 4 pool
// threads, each worker on its own thread-local kernel.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/shared_closure.h"
#include "graph/dijkstra.h"
#include "graph/kmb_kernel.h"
#include "graph/steiner.h"
#include "nfv/service_chain.h"
#include "reference/appro_multi_reference.h"
#include "reference/kmb_reference.h"
#include "topology/waxman.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace nfvm::graph {
namespace {

/// Restores the global pool to single-threaded when a test exits.
struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { util::ThreadPool::set_global_threads(1); }
};

enum class Weights { kSmallIntegers, kReals };

double draw_weight(util::Rng& rng, Weights kind) {
  return kind == Weights::kSmallIntegers
             ? static_cast<double>(rng.uniform_int(0, 2))
             : rng.uniform_real(0.0, 10.0);
}

/// Random multigraph: endpoints drawn independently, so parallel edges and
/// self-loops occur; sparse draws leave it disconnected.
Graph random_multigraph(util::Rng& rng, Weights kind) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 30));
  const auto m = static_cast<std::size_t>(rng.uniform_int(0, 3 * static_cast<std::int64_t>(n)));
  Graph g(n);
  for (std::size_t i = 0; i < m; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = rng.bernoulli(0.1) ? u : static_cast<VertexId>(rng.next_below(n));
    g.add_edge(u, v, draw_weight(rng, kind));
  }
  return g;
}

/// One to seven terminals, duplicates allowed.
std::vector<VertexId> random_terminals(util::Rng& rng, std::size_t n) {
  std::vector<VertexId> terms(static_cast<std::size_t>(rng.uniform_int(1, 7)));
  for (VertexId& t : terms) t = static_cast<VertexId>(rng.next_below(n));
  if (terms.size() > 1 && rng.bernoulli(0.3)) terms.back() = terms.front();
  return terms;
}

/// A call's observable outcome: the result, or the exception's type and
/// message.
struct Outcome {
  std::string error;
  SteinerResult result;
};

template <typename Fn>
Outcome run(Fn&& fn) {
  Outcome out;
  try {
    out.result = fn();
  } catch (const std::out_of_range& e) {
    out.error = std::string("out_of_range: ") + e.what();
  } catch (const std::invalid_argument& e) {
    out.error = std::string("invalid_argument: ") + e.what();
  }
  return out;
}

void expect_identical(const Outcome& got, const Outcome& want, const std::string& where) {
  EXPECT_EQ(got.error, want.error) << where;
  EXPECT_EQ(got.result.connected, want.result.connected) << where;
  EXPECT_EQ(got.result.edges, want.result.edges) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.result.weight),
            std::bit_cast<std::uint64_t>(want.result.weight))
      << where << ": " << got.result.weight << " vs " << want.result.weight;
}

/// Runs `cases` kernel-vs-reference pairs at 1 and 4 pool threads; case i
/// must be a pure function of i. Comparisons happen on the test thread.
void compare_at_thread_counts(
    std::size_t cases, const std::function<std::pair<Outcome, Outcome>(std::size_t)>& pair) {
  GlobalThreadsGuard guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::ThreadPool::set_global_threads(threads);
    std::vector<std::pair<Outcome, Outcome>> out(cases);
    util::ThreadPool::global().parallel_for(cases, [&](std::size_t i) { out[i] = pair(i); });
    for (std::size_t i = 0; i < cases; ++i) {
      expect_identical(out[i].first, out[i].second,
                       "case " + std::to_string(i) + " threads " + std::to_string(threads));
    }
  }
}

TEST(KmbKernelOracle, FromTablesMatchesReference) {
  compare_at_thread_counts(400, [](std::size_t i) {
    util::Rng rng(7000 + i);
    const Weights kind = i % 2 == 0 ? Weights::kSmallIntegers : Weights::kReals;
    const Graph g = random_multigraph(rng, kind);
    const std::vector<VertexId> terms = random_terminals(rng, g.num_vertices());
    std::map<VertexId, ShortestPaths> tables;
    for (const VertexId t : terms) tables.emplace(t, dijkstra(g, t));
    const std::function<const ShortestPaths&(VertexId)> table_for =
        [&tables](VertexId v) -> const ShortestPaths& { return tables.at(v); };
    return std::pair{run([&] { return kmb_steiner_from_tables(g, terms, table_for); }),
                     run([&] { return reference::kmb_steiner_from_tables(g, terms, table_for); })};
  });
}

TEST(KmbKernelOracle, KmbSteinerMatchesReference) {
  compare_at_thread_counts(200, [](std::size_t i) {
    util::Rng rng(8000 + i);
    const Weights kind = i % 2 == 0 ? Weights::kSmallIntegers : Weights::kReals;
    const Graph g = random_multigraph(rng, kind);
    const std::vector<VertexId> terms = random_terminals(rng, g.num_vertices());
    std::map<VertexId, ShortestPaths> tables;
    for (const VertexId t : terms) tables.emplace(t, dijkstra(g, t));
    return std::pair{run([&] { return kmb_steiner(g, terms); }),
                     run([&] {
                       return reference::kmb_steiner_from_tables(
                           g, terms, [&tables](VertexId v) -> const ShortestPaths& {
                             return tables.at(v);
                           });
                     })};
  });
}

TEST(KmbKernelOracle, TerminalErrorsMatchReference) {
  const Graph g = [] {
    Graph h(3);
    h.add_edge(0, 1, 1.0);
    h.add_edge(1, 2, 1.0);
    return h;
  }();
  for (const std::vector<VertexId>& terms :
       {std::vector<VertexId>{}, std::vector<VertexId>{0, 3}, std::vector<VertexId>{2, 2}}) {
    std::map<VertexId, ShortestPaths> tables;
    for (VertexId v = 0; v < g.num_vertices(); ++v) tables.emplace(v, dijkstra(g, v));
    const std::function<const ShortestPaths&(VertexId)> table_for =
        [&tables](VertexId v) -> const ShortestPaths& { return tables.at(v); };
    expect_identical(run([&] { return kmb_steiner_from_tables(g, terms, table_for); }),
                     run([&] { return reference::kmb_steiner_from_tables(g, terms, table_for); }),
                     "from tables");
  }
}

TEST(KmbKernel, UnionRejectsBadPathTargetAndEdgeId) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const ShortestPaths sp = dijkstra(g, 0);
  KmbKernel& kernel = KmbKernel::thread_local_kernel();
  kernel.begin_union(g.num_edges());
  EXPECT_THROW(kernel.add_path(sp, 3), std::out_of_range);
  EXPECT_THROW(path_edges(sp, 3), std::out_of_range);
  EXPECT_THROW(kernel.add_edge(1), std::out_of_range);
  // Unreachable targets add nothing, exactly like path_edges.
  EXPECT_NO_THROW(kernel.add_path(sp, 2));
  EXPECT_TRUE(path_edges(sp, 2).empty());
}

}  // namespace
}  // namespace nfvm::graph

namespace nfvm::core {
namespace {

/// SharedComboSolver over the overlay must equal KMB (reference pipeline,
/// fresh Dijkstra tables) inside the materialized auxiliary graph. Costs
/// are continuous, so shortest paths are unique and both sides expand the
/// same paths; the finished trees then agree edge for edge and bit for bit.
TEST(KmbKernelOracle, SharedComboSolverMatchesMaterializedAuxGraph) {
  struct Instance {
    topo::Topology topo;
    LinearCosts costs;
    nfv::Request request;
  };
  std::vector<Instance> instances;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    util::Rng rng(700 + seed);
    Instance inst;
    const auto n = static_cast<std::size_t>(rng.uniform_int(30, 60));
    inst.topo = topo::make_waxman(n, rng);
    inst.costs = random_costs(inst.topo, rng);
    inst.request.id = seed;
    inst.request.bandwidth_mbps = rng.uniform_real(50, 200);
    inst.request.chain = nfv::random_service_chain(rng, 1, 3);
    const auto picks = rng.sample_without_replacement(n, 2 + seed % 6);
    inst.request.source = static_cast<graph::VertexId>(picks[0]);
    for (std::size_t i = 1; i < picks.size(); ++i) {
      inst.request.destinations.push_back(static_cast<graph::VertexId>(picks[i]));
    }
    instances.push_back(std::move(inst));
  }

  graph::GlobalThreadsGuard guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::ThreadPool::set_global_threads(threads);
    std::size_t compared = 0;
    for (const Instance& inst : instances) {
      WorkContext ctx = build_work_context(inst.topo, inst.costs, inst.request, nullptr);
      if (!ctx.destinations_reachable || ctx.eligible_servers.empty()) continue;
      context_trees(ctx, inst.request.destinations);
      context_trees(ctx, ctx.eligible_servers);
      // Every single server and every server pair.
      std::vector<std::vector<graph::VertexId>> combos;
      const auto& pool = ctx.eligible_servers;
      for (std::size_t a = 0; a < pool.size(); ++a) {
        combos.push_back({pool[a]});
        for (std::size_t b = a + 1; b < pool.size(); ++b) combos.push_back({pool[a], pool[b]});
      }
      std::vector<std::pair<graph::Outcome, graph::Outcome>> out(combos.size());
      util::ThreadPool::global().parallel_for(combos.size(), [&](std::size_t i) {
        const AuxOverlay overlay = build_aux_overlay(ctx, inst.request.source, combos[i]);
        const reference::AuxiliaryGraph aux =
            reference::build_auxiliary_graph(ctx, inst.request.source, combos[i]);
        std::vector<graph::VertexId> terms{aux.virtual_source};
        terms.insert(terms.end(), inst.request.destinations.begin(),
                     inst.request.destinations.end());
        std::map<graph::VertexId, graph::ShortestPaths> tables;
        for (const graph::VertexId t : terms) tables.emplace(t, graph::dijkstra(aux.graph, t));
        out[i] = {graph::run([&] {
                    return SharedComboSolver(overlay, inst.request).solve();
                  }),
                  graph::run([&] {
                    return reference::kmb_steiner_from_tables(
                        aux.graph, terms,
                        [&tables](graph::VertexId v) -> const graph::ShortestPaths& {
                          return tables.at(v);
                        });
                  })};
      });
      for (std::size_t i = 0; i < combos.size(); ++i) {
        graph::expect_identical(out[i].first, out[i].second,
                                "request " + std::to_string(inst.request.id) + " combo " +
                                    std::to_string(i) + " threads " + std::to_string(threads));
        ++compared;
      }
    }
    EXPECT_GT(compared, 100u);
  }
}

}  // namespace
}  // namespace nfvm::core
