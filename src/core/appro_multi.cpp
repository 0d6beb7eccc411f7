#include "core/appro_multi.h"

#include <optional>
#include <stdexcept>

#include "core/aux_graph.h"
#include "core/combo_search.h"
#include "core/delay.h"
#include "core/shared_closure.h"
#include "graph/steiner.h"
#include "obs/hdr_histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/combinatorics.h"
#include "util/timer.h"

namespace nfvm::core {

OfflineSolution appro_multi(const topo::Topology& topo, const LinearCosts& costs,
                            const nfv::Request& request,
                            const ApproMultiOptions& options) {
  if (options.max_servers == 0) {
    throw std::invalid_argument("appro_multi: max_servers (K) must be >= 1");
  }
  NFVM_SPAN("appro_multi");
  NFVM_COUNTER_INC("core.appro_multi.calls");
  OfflineSolution sol;
  NFVM_OBS_ONLY(util::Stopwatch phase_watch;)
  const WorkContext ctx =
      build_work_context(topo, costs, request, options.resources);
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
  // branch-and-bound lower bounds.
  const std::vector<std::shared_ptr<const graph::ShortestPaths>> dest_trees =
      context_trees(ctx, request.destinations);
  const std::vector<graph::VertexId> pool =
      options.beam_width != 0
          ? beam_server_pool(ctx, dest_trees, options.beam_width)
          : ctx.eligible_servers;
  const SharedOracle oracle = build_shared_oracle(ctx, request, pool);

  // Branch-and-bound search over the shared-table evaluation. The search
  // returns exactly the combination an exhaustive sweep with the same
  // evaluator would rank first (see core/combo_search.h).
  NFVM_SPAN("appro_multi/branch_and_bound");
  const ComboBounds bounds(ctx, request, pool, dest_trees);
  const auto evaluator = [&](std::span<const std::size_t> idx) {
    std::vector<graph::VertexId> combo(idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i) combo[i] = pool[idx[i]];
    const AuxOverlay aux = build_aux_overlay(ctx, request.source, combo);
    graph::SteinerResult st = SharedComboSolver(oracle, aux).solve();
    return ComboEvaluation{st.connected, st.weight, std::move(st.edges)};
  };
  // The trees depend on a star-free combination only through its
  // per-destination routes, which makes dominance exact. Single servers are
  // never dominated, so K = 1 needs no table.
  std::optional<SprimeTable> sprime;
  if (options.max_servers > 1) sprime.emplace(oracle, pool);
  ComboSearch search(pool.size(), bounds, options.max_servers, evaluator,
                     sprime ? &*sprime : nullptr);
  // Everything between the context and the search: destination trees, the
  // shared oracle, the bounds and the dominance table.
  NFVM_HDR_OBSERVE("core.appro_multi.prepare_us", phase_watch.elapsed_us());

  // Realize-fallthrough: when the cheapest tree violates the delay bound or
  // the residual capacities, re-search with its key as the floor to obtain
  // the next candidate in cost order. Later passes reuse the bounds and
  // evaluations of earlier ones, so the shared evaluation budget (and
  // combinations_explored) counts each combination once per call.
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
        search.next_best(have_floor ? &floor : nullptr, remaining);
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
    const AuxOverlay aux = build_aux_overlay(ctx, request.source, combo);
    PseudoMulticastTree tree =
        realize_pseudo_tree(ctx, aux, pass.tree_edges, request);
    const bool feasible =
        meets_delay_bound(topo, request, tree) &&
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

}  // namespace nfvm::core
