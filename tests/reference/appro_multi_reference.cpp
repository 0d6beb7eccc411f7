#include "reference/appro_multi_reference.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "core/combo_search.h"
#include "core/delay.h"
#include "core/shared_closure.h"
#include "graph/steiner.h"
#include "graph/tree.h"
#include "obs/hdr_histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/combinatorics.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace nfvm::reference {

using core::AuxOverlay;
using core::ComboBounds;
using core::ComboEvaluation;
using core::ComboKey;
using core::ComboSearch;
using core::ComboSearchResult;
using core::DestinationRoute;
using core::OfflineSolution;
using core::PseudoMulticastTree;
using core::SharedComboSolver;
using core::SharedOracle;
using core::SprimeTable;
using core::WorkContext;

AuxiliaryGraph build_auxiliary_graph(const WorkContext& ctx,
                                     graph::VertexId source,
                                     std::span<const graph::VertexId> combo) {
  if (combo.empty()) {
    throw std::invalid_argument("build_auxiliary_graph: empty server combination");
  }
  NFVM_COUNTER_INC("core.appro_multi.aux_graphs_built");
  AuxiliaryGraph aux;
  aux.num_real_edges = ctx.cost_graph.num_edges();
  aux.combo.assign(combo.begin(), combo.end());

  // Real part: same vertex/edge ids as cost_graph.
  aux.graph = graph::Graph(ctx.cost_graph.num_vertices());
  for (graph::EdgeId e = 0; e < ctx.cost_graph.num_edges(); ++e) {
    const graph::Edge& ed = ctx.cost_graph.edge(e);
    aux.graph.add_edge(ed.u, ed.v, ed.weight);
  }

  aux.virtual_source = aux.graph.add_vertex();

  // Virtual edges s'_k -> v, weighted path-cost + chain cost.
  aux.virtual_paths.reserve(combo.size());
  for (graph::VertexId v : combo) {
    if (!ctx.sp_source.reachable(v)) {
      throw std::invalid_argument("build_auxiliary_graph: server unreachable");
    }
    const double w = ctx.sp_source.dist[v] + ctx.server_chain_cost[v];
    aux.graph.add_edge(aux.virtual_source, v, w);
    aux.virtual_paths.push_back(graph::path_edges(ctx.sp_source, v));
  }

  // Zero-cost correction: physical edges (s_k, v) with v in the combination.
  for (const graph::Adjacency& adj : ctx.cost_graph.neighbors(source)) {
    if (std::find(combo.begin(), combo.end(), adj.neighbor) != combo.end()) {
      aux.graph.set_weight(adj.edge, 0.0);
    }
  }
  return aux;
}

PseudoMulticastTree realize_pseudo_tree(const WorkContext& ctx,
                                        const AuxiliaryGraph& aux,
                                        const std::vector<graph::EdgeId>& tree_edges,
                                        const nfv::Request& request) {
  const graph::RootedTree rooted(aux.graph, tree_edges, aux.virtual_source);
  PseudoMulticastTree tree;
  tree.source = request.source;

  std::vector<graph::EdgeId> traversals;  // physical ids, one per traversal
  traversals.reserve(tree_edges.size());
  double cost = 0.0;
  for (graph::EdgeId e : tree_edges) {
    cost += aux.graph.weight(e);
    if (aux.is_virtual(e)) {
      const std::size_t i = aux.virtual_index(e);
      tree.servers.push_back(aux.combo[i]);
      for (graph::EdgeId pe : aux.virtual_paths[i]) {
        traversals.push_back(ctx.to_physical[pe]);
      }
    } else {
      traversals.push_back(ctx.to_physical[e]);
    }
  }
  tree.cost = cost;
  std::sort(tree.servers.begin(), tree.servers.end());
  tree.edge_uses = core::accumulate_edge_uses(std::move(traversals));

  tree.routes.reserve(request.destinations.size());
  for (graph::VertexId d : request.destinations) {
    const std::vector<graph::VertexId> aux_path =
        rooted.path_vertices(aux.virtual_source, d);
    // aux_path = [s'_k, server, ...dest]; the first hop is necessarily a
    // virtual edge because s'_k has no other incident edges.
    if (aux_path.size() < 2) {
      throw std::logic_error("realize_pseudo_tree: degenerate destination path");
    }
    const graph::VertexId server = aux_path[1];

    DestinationRoute route;
    route.destination = d;
    route.server = server;
    route.walk = graph::path_vertices(ctx.sp_source, server);
    route.server_index = route.walk.size() - 1;
    route.walk.insert(route.walk.end(), aux_path.begin() + 2, aux_path.end());
    tree.routes.push_back(std::move(route));
  }
  return tree;
}

OfflineSolution appro_multi(const topo::Topology& topo, const core::LinearCosts& costs,
                            const nfv::Request& request,
                            const core::ApproMultiOptions& options, Engine engine,
                            Search search) {
  if (options.max_servers == 0) {
    throw std::invalid_argument("appro_multi: max_servers (K) must be >= 1");
  }
  const bool shared = engine == Engine::kSharedDijkstra;
  const bool bnb = search == Search::kBranchAndBound;

  NFVM_SPAN("appro_multi");
  NFVM_COUNTER_INC("core.appro_multi.calls");
  OfflineSolution sol;
  NFVM_OBS_ONLY(util::Stopwatch phase_watch;)
  const WorkContext ctx =
      core::build_work_context(topo, costs, request, options.resources);
  NFVM_HDR_OBSERVE("core.appro_multi.context_us", phase_watch.elapsed_us());
  NFVM_OBS_ONLY(phase_watch.reset();)
  if (!ctx.destinations_reachable) {
    sol.reject_reason = "a destination is unreachable with the demanded bandwidth";
    return sol;
  }
  if (ctx.eligible_servers.empty()) {
    sol.reject_reason = "no server can host the service chain";
    return sol;
  }

  // Destination SP trees feed the beam centrality score and the
  // branch-and-bound lower bounds; the legacy unbeamed sweep never needs
  // them, so it skips the fan-out entirely.
  std::vector<std::shared_ptr<const graph::ShortestPaths>> dest_trees;
  if (bnb || options.beam_width != 0) {
    dest_trees = core::context_trees(ctx, request.destinations);
  }
  const std::vector<graph::VertexId> pool =
      options.beam_width != 0
          ? core::beam_server_pool(ctx, dest_trees, options.beam_width)
          : ctx.eligible_servers;

  SharedOracle oracle;
  if (shared) oracle = core::build_shared_oracle(ctx, request, pool);

  // Terminals in every auxiliary graph: the virtual source plus D_k. The
  // virtual source id equals |V| in each aux graph by construction.
  std::vector<graph::VertexId> terminals;
  terminals.push_back(static_cast<graph::VertexId>(ctx.cost_graph.num_vertices()));
  terminals.insert(terminals.end(), request.destinations.begin(),
                   request.destinations.end());

  if (!bnb) {
    struct Candidate {
      double cost;
      std::vector<graph::VertexId> combo;
      std::vector<graph::EdgeId> tree_edges;  // ids in the aux graph
    };
    std::vector<Candidate> candidates;

    // Enumerate the server combinations up front (cheap), then evaluate them
    // across the thread pool. Each evaluation writes only its own slot and the
    // results are collected in enumeration order, so the admitted tree is
    // identical for any thread count.
    std::vector<std::vector<graph::VertexId>> combos;
    const std::size_t max_k = std::min(options.max_servers, pool.size());
    bool budget_left = true;
    {
      NFVM_HDR_OBSERVE("core.appro_multi.prepare_us", phase_watch.elapsed_us());
      NFVM_SPAN("appro_multi/enumerate_servers");
      NFVM_OBS_ONLY(phase_watch.reset();)
      for (std::size_t k = 1; k <= max_k && budget_left; ++k) {
        std::vector<std::size_t> idx(k);
        for (std::size_t i = 0; i < k; ++i) idx[i] = i;
        do {
          if (combos.size() >= options.max_combinations) {
            budget_left = false;
            break;
          }
          std::vector<graph::VertexId> combo(k);
          for (std::size_t i = 0; i < k; ++i) combo[i] = pool[idx[i]];
          combos.push_back(std::move(combo));
        } while (util::next_combination(idx, pool.size()));
      }
      NFVM_HDR_OBSERVE("core.appro_multi.enumerate_us", phase_watch.elapsed_us());
    }
    sol.combinations_explored = combos.size();

    struct Evaluated {
      bool connected = false;
      double cost = 0.0;
      std::vector<graph::EdgeId> tree_edges;
    };
    std::vector<Evaluated> evaluated(combos.size());
    {
      NFVM_SPAN("appro_multi/evaluate_combinations");
      NFVM_OBS_ONLY(phase_watch.reset();)
      util::ThreadPool::global().parallel_for(combos.size(), [&](std::size_t i) {
        graph::SteinerResult st;
        if (shared) {
          // Overlay + shared tables: no per-combination graph copy at all.
          const AuxOverlay aux = core::build_aux_overlay(ctx, request.source, combos[i]);
          st = SharedComboSolver(oracle, aux).solve();
        } else {
          const AuxiliaryGraph aux =
              build_auxiliary_graph(ctx, request.source, combos[i]);
          st = graph::kmb_steiner(aux.graph, terminals);
        }
        evaluated[i] = Evaluated{st.connected, st.weight, std::move(st.edges)};
      });
      NFVM_HDR_OBSERVE("core.appro_multi.evaluate_us", phase_watch.elapsed_us());
    }
    candidates.reserve(combos.size());
    for (std::size_t i = 0; i < combos.size(); ++i) {
      if (!evaluated[i].connected) continue;
      candidates.push_back(Candidate{evaluated[i].cost, std::move(combos[i]),
                                     std::move(evaluated[i].tree_edges)});
    }
    NFVM_COUNTER_ADD("core.appro_multi.combinations_explored",
                     sol.combinations_explored);
    NFVM_HDR_OBSERVE("core.appro_multi.combinations_per_call",
                     sol.combinations_explored);

    if (candidates.empty()) {
      sol.reject_reason = "no server combination connects the source to all destinations";
      return sol;
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) { return a.cost < b.cost; });
    NFVM_SPAN("appro_multi/realize_cheapest");
    NFVM_OBS_ONLY(phase_watch.reset();
                  const auto observe_realize = [&phase_watch] {
                    NFVM_HDR_OBSERVE("core.appro_multi.realize_us",
                                     phase_watch.elapsed_us());
                  };)
    for (const Candidate& cand : candidates) {
      // Realization only needs edge weights/endpoints and the source's
      // shortest-path tree — the overlay suffices for both engines (the edge-id
      // scheme is shared), so the second full graph copy is gone too.
      const AuxOverlay aux = core::build_aux_overlay(ctx, request.source, cand.combo);
      PseudoMulticastTree tree =
          core::realize_pseudo_tree(ctx, aux, cand.tree_edges, request);
      if (!core::meets_delay_bound(topo, request, tree)) continue;
      if (options.resources != nullptr &&
          !options.resources->can_allocate(tree.footprint(request, topo.graph))) {
        // Cheapest tree needs more residual than available once traversal
        // multiplicities are charged; fall through to the next combination.
        continue;
      }
      sol.admitted = true;
      sol.tree = std::move(tree);
      NFVM_OBS_ONLY(observe_realize();)
      return sol;
    }

    NFVM_OBS_ONLY(observe_realize();)
    sol.reject_reason = "every candidate tree violates capacity or delay constraints";
    return sol;
  }

  // Branch-and-bound search. The evaluator is byte-for-byte the legacy
  // per-combination evaluation, so equal combinations yield bitwise-equal
  // costs and trees; the search therefore returns exactly the combination
  // the legacy sweep would have ranked first (see core/combo_search.h).
  NFVM_SPAN("appro_multi/branch_and_bound");
  const ComboBounds bounds(ctx, request, pool, dest_trees);
  const auto evaluator = [&](std::span<const std::size_t> idx) {
    std::vector<graph::VertexId> combo(idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i) combo[i] = pool[idx[i]];
    graph::SteinerResult st;
    if (shared) {
      const AuxOverlay aux = core::build_aux_overlay(ctx, request.source, combo);
      st = SharedComboSolver(oracle, aux).solve();
    } else {
      const AuxiliaryGraph aux = build_auxiliary_graph(ctx, request.source, combo);
      st = graph::kmb_steiner(aux.graph, terminals);
    }
    return ComboEvaluation{st.connected, st.weight, std::move(st.edges)};
  };
  // The shared engine's trees depend on a star-free combination only
  // through its per-destination routes, which makes dominance exact there;
  // the reference engine's Dijkstra ties give no such guarantee. Single
  // servers are never dominated, so K = 1 needs no table.
  std::optional<SprimeTable> sprime;
  if (shared && options.max_servers > 1) sprime.emplace(oracle, pool);
  ComboSearch combo_search(pool.size(), bounds, options.max_servers, evaluator,
                           sprime ? &*sprime : nullptr);
  // Everything between the context and the search: destination trees, the
  // shared oracle, the bounds and the dominance table.
  NFVM_HDR_OBSERVE("core.appro_multi.prepare_us", phase_watch.elapsed_us());

  // Realize-fallthrough: when the cheapest tree violates the delay bound or
  // the residual capacities, re-search with its key as the floor to obtain
  // the next candidate in the legacy sort order. Later passes reuse the
  // bounds and evaluations of earlier ones, so the shared evaluation budget
  // (and combinations_explored) counts each combination once per call.
  ComboKey floor;
  bool have_floor = false;
  bool any_connected = false;
  NFVM_OBS_ONLY(double evaluate_us = 0.0; double realize_us = 0.0;
                util::Stopwatch pass_watch;)
  while (true) {
    const std::size_t remaining =
        options.max_combinations > sol.combinations_explored
            ? options.max_combinations - sol.combinations_explored
            : 0;
    NFVM_OBS_ONLY(pass_watch.reset();)
    ComboSearchResult pass =
        combo_search.next_best(have_floor ? &floor : nullptr, remaining);
    NFVM_OBS_ONLY(evaluate_us += pass_watch.elapsed_us();)
    sol.combinations_explored += pass.evaluated;
    sol.combinations_pruned =
        util::saturating_add(sol.combinations_pruned, pass.pruned);
    sol.combinations_dominated =
        util::saturating_add(sol.combinations_dominated, pass.dominated);
    if (!pass.found) break;
    any_connected = true;

    NFVM_OBS_ONLY(pass_watch.reset();)
    std::vector<graph::VertexId> combo(pass.key.idx.size());
    for (std::size_t i = 0; i < combo.size(); ++i) combo[i] = pool[pass.key.idx[i]];
    const AuxOverlay aux = core::build_aux_overlay(ctx, request.source, combo);
    PseudoMulticastTree tree =
        core::realize_pseudo_tree(ctx, aux, pass.tree_edges, request);
    const bool feasible =
        core::meets_delay_bound(topo, request, tree) &&
        (options.resources == nullptr ||
         options.resources->can_allocate(tree.footprint(request, topo.graph)));
    NFVM_OBS_ONLY(realize_us += pass_watch.elapsed_us();)
    if (feasible) {
      sol.admitted = true;
      sol.tree = std::move(tree);
      break;
    }
    floor = std::move(pass.key);
    have_floor = true;
  }
  NFVM_HDR_OBSERVE("core.appro_multi.evaluate_us", evaluate_us);
  NFVM_HDR_OBSERVE("core.appro_multi.realize_us", realize_us);
  NFVM_COUNTER_ADD("core.appro_multi.combinations_explored",
                   sol.combinations_explored);
  NFVM_COUNTER_ADD("core.appro_multi.combinations_pruned",
                   sol.combinations_pruned);
  NFVM_COUNTER_ADD("core.appro_multi.combinations_dominated",
                   sol.combinations_dominated);
  NFVM_HDR_OBSERVE("core.appro_multi.combinations_per_call",
                   sol.combinations_explored);
  if (!sol.admitted) {
    sol.reject_reason =
        any_connected
            ? "every candidate tree violates capacity or delay constraints"
            : "no server combination connects the source to all destinations";
  }
  return sol;
}

}  // namespace nfvm::reference
