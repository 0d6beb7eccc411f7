// Shared-Dijkstra closure machinery for server scans.
//
// Both Appro_Multi's shared engine and the online fast paths evaluate many
// candidate trees whose metric closures are all assembled from the SAME small
// family of shortest-path trees: one per terminal (source, destinations) plus
// one per candidate server. Appro_Multi keeps that family in its
// WorkContext's tree table (WorkContext::trees, a graph::TreeTable filled by
// context_trees), and everything here reads it through trees.from(v):
//
//   * SharedComboSolver — evaluates one server combination's Steiner tree
//     from the table over an AuxOverlay, never materializing the auxiliary
//     graph. Distances in G_k^i decompose into
//       d_i(x, y) = min( d_G'(x, y),                 # plain working graph
//                        star_in(x) + star_out(y),   # through the zero-cost
//                                                    # star {s_k} ∪ (combo ∩ N(s_k))
//                        d_i(s', x) + d_i(s', y) )   # through the virtual source
//     with d_i(s', y) = min over v in combo of (w_virtual(v) + d_i(v, y)).
//     It needs the trees from the source, the destinations and the
//     combination's servers.
//   * ComboBounds, SprimeTable and beam_server_pool — the branch-and-bound
//     ingredients, from the same trees.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/aux_graph.h"
#include "graph/dijkstra.h"
#include "graph/sp_engine.h"
#include "graph/steiner.h"
#include "nfv/request.h"

namespace nfvm::graph {
class KmbKernel;
}  // namespace nfvm::graph

namespace nfvm::core {

/// Index into `roots` of the root whose tree in `trees` is nearest to `v`;
/// the first minimum wins, matching the deterministic first-min scans used
/// across the codebase. Returns roots.size() when `v` is unreachable from
/// every root.
std::size_t nearest_table_root(const graph::TreeTable& trees,
                               std::span<const graph::VertexId> roots,
                               graph::VertexId v);

/// The top-`beam_width` eligible servers by closure centrality — score
///   d(s_k, v) + c_v(SC_k) + mean over destinations of d(v, d)
/// (lower is more central; ties break toward the smaller vertex id) —
/// returned sorted ascending so the combination sweep keeps its canonical
/// order. beam_width == 0 or >= |V_S| returns every eligible server. The
/// score order does not depend on m, so pools are nested in beam_width;
/// that nesting is what makes the beamed Appro_Multi cost non-increasing
/// in m (a wider beam only adds combinations).
/// Reads the trees from the source and the destinations in ctx.trees.
std::vector<graph::VertexId> beam_server_pool(const WorkContext& ctx,
                                              const nfv::Request& request,
                                              std::size_t beam_width);

/// Scaled subset-MST sweep over a closure-matrix lower bound M on the
/// terminals {s'} ∪ D (terminal 0 = s', terminal j >= 1 = destination j-1):
///   M(0, j) = min_sv[j-1],
///   M(a, b) = min(rdist[(a-1)·|D| + (b-1)], min_sv[a-1] + min_sv[b-1])
/// for 0 < a < b. Returns the largest MST(M|S)·|S| / (2(|S| - 1)) over the
/// farthest-point-insertion prefixes S of the terminals seeded at s', or
/// infinity when some terminal has only infinite entries to a prefix
/// (docs/performance.md, "The bounds"). Each prefix's MST is the previous
/// one with one terminal inserted (Chin and Houck, 1978), so a sweep costs
/// O(t²) for t = |D| + 1 terminals. Scratch buffers are reused across
/// calls: one sweep at a time per object.
class SubsetMstSweep {
 public:
  double operator()(std::span<const double> min_sv,
                    std::span<const double> rdist);

 private:
  /// Adds terminal p, whose entries to the tree's vertices are in row_, to
  /// the tree and returns the new tree's weight.
  double insert(std::size_t p);

  /// to_set_[j]: a pending terminal's distance to the chosen prefix.
  std::vector<double> to_set_;
  /// row_[j]: M(p, j) for the terminal p being inserted.
  std::vector<double> row_;
  /// The prefix's MST, rooted at the terminal inserted last: order_ lists
  /// the tree's vertices, each after its parent, and every vertex x but
  /// the root has a parent_[x] and the weight up_[x] of edge
  /// (x, parent_[x]).
  std::vector<std::size_t> order_;
  std::vector<std::size_t> parent_;
  std::vector<double> up_;
  /// insert() state: the heaviest edge on each vertex's path to the new
  /// terminal p, edge flags (x is the edge (x, parent_[x]), t + x the edge
  /// (x, p)), a stamp per vertex on a re-rooted path and the next order_.
  std::vector<double> heavy_;
  std::vector<std::size_t> heavy_id_;
  std::vector<char> kept_;
  std::vector<std::size_t> on_path_;
  std::size_t stamp_ = 0;
  std::vector<std::size_t> next_order_;
};

/// Admissible (never overestimating) lower bounds on the Steiner cost of
/// Appro_Multi server combinations, assembled once per request from the
/// shared per-terminal tables. Used by the branch-and-bound combination
/// search (core/combo_search.h) to discard combinations and whole prefix
/// subtrees without evaluating them; docs/performance.md derives each bound.
///
/// Every bound underestimates the weight of ANY tree spanning
/// {s'_k} ∪ D_k in ANY auxiliary graph G_k^i whose combination is drawn
/// from the pool, so pruning with strict inequality preserves the exact
/// argmin of the exhaustive sweep for both evaluation engines. The
/// ingredients only need the source and destination trees in ctx.trees
/// (the graph is undirected, so d(v, d) = dest_tree[d].dist[v]); the
/// zero-cost star is widened to source ∪ (pool ∩ N(source)), which can only
/// shorten distances and therefore keeps every bound admissible for every
/// sub-combination.
class ComboBounds {
 public:
  ComboBounds(const WorkContext& ctx, const nfv::Request& request,
              std::span<const graph::VertexId> pool);

  /// Element-wise minima of the bound ingredients over a combination
  /// prefix. Extending a prefix only takes O(|D|).
  struct Partial {
    /// min over the prefix of d(s_k, v) + c_v(SC_k) (the virtual-edge
    /// weight).
    double min_virt = graph::kInfiniteDistance;
    /// Per destination: min over the prefix of virt(v) + reach(v, d) — a
    /// lower bound on d_i(s', d) through any prefix server.
    std::vector<double> min_sv;
    /// Per destination: min over the prefix of reach(v, d) — a lower bound
    /// on the star-or-direct distance from any prefix server to d.
    std::vector<double> min_reach;
  };

  /// The empty prefix (all minima infinite).
  Partial root() const;
  /// Minima after appending pool server index `i` to the prefix.
  Partial extend(const Partial& prefix, std::size_t i) const;

  /// Lower bound on the evaluated Steiner cost of exactly the combination
  /// with strictly increasing pool indices `idx`. Unlike the prefix bounds,
  /// the combination is complete here, so its zero-cost star
  /// ({s_k} ∪ (combo ∩ N(s_k))) is exactly known: the closure entries are
  /// rebuilt against that combo-specific star instead of the widened
  /// pool-level star, which dominates the prefix relaxation entrywise —
  /// combinations avoiding the source-adjacent servers get (near-)exact
  /// entries, computed once per request since their star is always {s_k}.
  /// NOT thread-safe: bound queries reuse per-object scratch
  /// buffers, so all calls must come from one thread at a time (the
  /// combination search only queries bounds from its orchestration thread).
  double candidate_bound(std::span<const std::size_t> idx) const;
  /// Lower bound over every combination extending `prefix` with one or more
  /// servers drawn from pool indices >= `next`. Same single-caller contract
  /// as candidate_bound().
  double subtree_bound(const Partial& prefix, std::size_t next) const;

 private:
  /// Assembles the four sub-bounds from per-destination ingredient minima
  /// and a destination-destination distance matrix (`rdist`/`rmin` are the
  /// pool-level members for the prefix bounds, the star-free members or
  /// combo-specific scratch for candidate_bound).
  double bound_from(double min_virt, std::span<const double> min_sv,
                    std::span<const double> min_reach,
                    std::span<const double> rdist,
                    std::span<const double> rmin) const;
  /// Lower bound on the star-or-direct distance from pool[i] to
  /// destination d, for a zero-cost star whose members lie within `maxstar`
  /// of s_k and whose distances to the destinations are `snear`.
  double reach(std::size_t i, std::size_t d, double maxstar,
               std::span<const double> snear) const;
  /// The destination-destination rows for a star whose distances to the
  /// destinations are `snear`: rdist[d * |D| + d'] = min(d(d, d'),
  /// snear[d] + snear[d']) and rmin[d] = min over d' != d of it.
  void pair_rows(std::span<const double> snear, std::vector<double>& rdist,
                 std::vector<double>& rmin) const;

  std::size_t num_servers_ = 0;
  std::size_t num_dests_ = 0;
  /// virt_[i]: weight of the virtual edge (s', pool[i]).
  std::vector<double> virt_;
  /// reach_[i * |D| + d]: lower bound on the star-or-direct distance from
  /// pool[i] to destination d.
  std::vector<double> reach_;
  /// rdist_[d * |D| + d']: lower bound on the star-or-direct distance
  /// between destinations d and d'.
  std::vector<double> rdist_;
  /// rmin_[d]: min over d' != d of rdist_ (infinite when |D| == 1).
  std::vector<double> rmin_;
  /// Raw (unrelaxed) ingredients for the combo-specific star rebuild in
  /// candidate_bound: working-graph distances untouched by any star
  /// shortcut.
  /// sdist_[i]: d(s_k, pool[i]).
  std::vector<double> sdist_;
  /// ddirect_[i * |D| + d]: d(pool[i], destination d).
  std::vector<double> ddirect_;
  /// star_member_[i]: pool[i] is adjacent to the source (a potential
  /// zero-cost-star member).
  std::vector<char> star_member_;
  /// dsrc_[d]: d(s_k, destination d).
  std::vector<double> dsrc_;
  /// ddraw_[d * |D| + d']: d(destination d, destination d').
  std::vector<double> ddraw_;
  /// reach_, rdist_ and rmin_ for the star {s_k}, the star of every
  /// combination without a source-adjacent member.
  std::vector<double> free_reach_;
  std::vector<double> free_rdist_;
  std::vector<double> free_rmin_;
  /// Suffix minima over pool index j in [0, n]: row j holds the minima over
  /// servers [j, n), row n is infinite. Combining a prefix Partial with row
  /// `next` yields the minima over prefix ∪ [next, n).
  std::vector<double> suffix_min_virt_;
  std::vector<double> suffix_min_sv_;
  std::vector<double> suffix_min_reach_;
  /// Scratch reused across bound queries (hence the single-caller contract
  /// above): combined minima, the star-specific closure rows and the
  /// subset-MST sweep's state. Bounds run once per candidate, so allocating
  /// here instead of per call keeps the search overhead flat.
  mutable std::vector<double> scratch_min_sv_;
  mutable std::vector<double> scratch_min_reach_;
  mutable std::vector<double> scratch_snear_;
  mutable std::vector<double> scratch_rdist_;
  mutable std::vector<double> scratch_rmin_;
  mutable SubsetMstSweep sweep_;
};

/// Evaluates one combination via the shared tables; returns a Steiner tree
/// in auxiliary-graph edge ids. Deterministic: identical output to running
/// KMB inside the materialized auxiliary graph. The closure MST, the path
/// union and the finish run on this thread's graph::KmbKernel, so solve()
/// allocates only the returned edge vector. aux.ctx->trees must hold the
/// trees from the source, every destination and every combination server.
class SharedComboSolver {
 public:
  SharedComboSolver(const AuxOverlay& aux, const nfv::Request& request);

  graph::SteinerResult solve() const;

  /// d_i(s', destinations[dest_index]): the first minimum, in combination
  /// order, of virtual-edge weight plus star-or-direct distance.
  double sprime_distance(std::size_t dest_index) const {
    return via_sprime_[dest_index].value;
  }

 private:
  struct StarEntry {
    graph::VertexId vertex;
    graph::EdgeId edge;  // working-graph edge to the source (invalid for it)
  };
  /// A vertex-to-vertex distance with the realized routing choice:
  /// p == kInvalidVertex means the direct working-graph path, otherwise the
  /// path enters the zero-cost star at p and leaves it at q.
  struct Via {
    double value = graph::kInfiniteDistance;
    graph::VertexId p = graph::kInvalidVertex;
    graph::VertexId q = graph::kInvalidVertex;
  };
  /// d_i(s', y) with the realized server.
  struct ViaSprime {
    double value = graph::kInfiniteDistance;
    graph::VertexId server = graph::kInvalidVertex;
    Via inner;
  };

  Via vertex_distance(const graph::ShortestPaths& sp_x, graph::VertexId y) const;
  ViaSprime best_via_sprime(graph::VertexId y) const;
  double closure_distance(std::size_t a, std::size_t b) const;
  void emit_via(graph::KmbKernel& kernel, const graph::ShortestPaths& sp_x,
                graph::VertexId y, const Via& via) const;
  void emit_sprime(graph::KmbKernel& kernel, std::size_t dest_index) const;
  void expand(graph::KmbKernel& kernel, std::size_t a, std::size_t b) const;

  const AuxOverlay& aux_;
  const nfv::Request& request_;
  const graph::TreeTable& trees_;
  std::vector<StarEntry> star_;
  std::vector<ViaSprime> via_sprime_;
};

/// Per-request pool server × destination table of the values the shared
/// engine minimizes to route destinations from the virtual source:
/// value(i, d) = virt(pool[i]) + star-or-direct distance from pool[i] to
/// destination d, with the zero-cost star reduced to {s_k}. Filled by
/// single-server SharedComboSolvers, so each entry is bit for bit the term
/// SharedComboSolver compares for pool[i] in any combination whose star is
/// {s_k}, i.e. any combination without a source-adjacent server.
///
/// The combination search uses it to skip dominated combinations
/// (docs/performance.md, "Dominated combinations"): in such a combination
/// the tree depends on the servers only through which member is the first
/// minimum of value(., d) for each destination d, so a member that is the
/// first minimum for no destination can be dropped without changing the
/// evaluated weight or tree.
class SprimeTable {
 public:
  SprimeTable(const WorkContext& ctx, const nfv::Request& request,
              std::span<const graph::VertexId> pool);

  std::size_t num_destinations() const { return num_dests_; }
  double value(std::size_t i, std::size_t d) const {
    return value_[i * num_dests_ + d];
  }
  /// pool[i] is a neighbour of the source: a combination holding it has a
  /// larger zero-cost star, so its values do not apply (they are left
  /// infinite).
  bool source_adjacent(std::size_t i) const { return source_adjacent_[i] != 0; }

 private:
  std::size_t num_dests_ = 0;
  std::vector<double> value_;
  std::vector<char> source_adjacent_;
};

}  // namespace nfvm::core
