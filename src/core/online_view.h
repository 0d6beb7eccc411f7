// Persistent weighted working view for Online_CP's admission fast path.
// Online_SP needs no view: its links keep their unit weights, so it
// computes each request's trees fresh by breadth-first search
// (core/online_sp.h).
//
// Online_CP's weighted graph G_k (w_e = beta^{u_e} - 1) is a pure function
// of each link's residual bandwidth, so after an admission only the edges of
// the admitted footprint change weight. Instead of rebuilding the filtered,
// reweighted graph from scratch for every request, this class keeps one
// Graph mirroring the physical topology edge-for-edge (edge id == physical
// edge id) and *patches* the touched weights after each allocation and
// release.
//
// Bandwidth/table eligibility is deliberately NOT baked into the view:
// queries run a masked Dijkstra with the per-request predicate
// nfv::edge_eligible(state, g, e, b_k), filled by nfv::fill_eligibility_mask.
// A tree is therefore a function of the edges' *effective* weights (weight
// if eligible at b_k, infinity otherwise), and that is what the repair
// store tracks.
//
// Repair invariant (the correctness core — see docs/performance.md,
// "Repairing the server trees", and graph/sp_repair.h): the view keeps one
// persistent shortest-path tree per topology server in a graph::SpTreeStore.
// Each trees_for call diffs the effective weights against the store's
// snapshot, and every server tree it lists is brought up to date by an
// exact repair — kept as is when only non-tree edges got more expensive,
// repaired locally otherwise, recomputed in full when a tie makes the local
// parent rule unsafe. Source and destination trees are computed fresh into
// the store's per-call tree table. Every tree is bit-identical to a fresh
// masked Dijkstra on the current view, so admissions, releases and
// bandwidth changes need no invalidation at all. Callers read the trees
// through the returned store's from(v) until the next trees_for call.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/sp_repair.h"
#include "nfv/resources.h"
#include "topology/topology.h"

namespace nfvm::core {

class OnlineWeightedView {
 public:
  /// `edge_weight(e)` must be a pure function of edge e's CURRENT residual
  /// state (it is called for every edge at construction / rebuild and for
  /// the touched edges after allocations and releases). The topology must
  /// outlive the view.
  using EdgeWeightFn = std::function<double(graph::EdgeId)>;
  OnlineWeightedView(const topo::Topology& topo, EdgeWeightFn edge_weight);

  /// The weighted mirror graph. Edge ids coincide with physical edge ids
  /// and adjacency order matches the topology graph, so trees computed here
  /// need no id remapping.
  const graph::Graph& graph() const noexcept { return view_; }

  /// Recomputes every edge weight and drops the repair store
  /// (`core.online.view_rebuilds`). Constructor-equivalent reset, used after
  /// a snapshot restore replaced the residuals wholesale.
  void rebuild();

  /// Patches the weights of the footprint's edges after an admission
  /// (`core.online.view_patches`).
  void apply_allocate(const nfv::Footprint& footprint);

  /// Patches the footprint's edge weights after a release.
  void apply_release(const nfv::Footprint& footprint);

  /// Brings the shortest-path trees from each of `sources` on the view up
  /// to date, restricted to edges eligible at bandwidth threshold `b`
  /// (nfv::edge_eligible against `state`), and returns the store that
  /// answers from(v) for them until the next call. Server trees come from
  /// the repair store, brought up to date in parallel on
  /// util::ThreadPool::global(); other sources are computed fresh. Every
  /// tree equals a fresh filtered Dijkstra bit for bit, at any thread count.
  const graph::SpTreeStore& trees_for(const nfv::ResourceState& state,
                                      std::span<const graph::VertexId> sources,
                                      double b);

 private:
  /// Re-reads the footprint's edge weights.
  void patch(const nfv::Footprint& footprint);

  const topo::Topology* topo_;
  EdgeWeightFn edge_weight_;
  graph::Graph view_;
  /// One persistent tree per topology server.
  graph::SpTreeStore store_;
  /// Per-edge eligibility bitmap scratch, rebuilt once per trees_for call.
  std::vector<std::uint8_t> mask_;
};

}  // namespace nfvm::core
