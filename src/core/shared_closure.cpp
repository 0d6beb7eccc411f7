#include "core/shared_closure.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "graph/kmb_kernel.h"
#include "obs/hdr_histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace nfvm::core {

const graph::ShortestPaths& TerminalTables::from(graph::VertexId v) const {
  const graph::ShortestPaths* table = by_vertex_.at(v);
  if (table == nullptr) {
    throw std::logic_error("TerminalTables: no shortest-path table for vertex");
  }
  return *table;
}

SharedOracle build_shared_oracle(const WorkContext& ctx,
                                 const nfv::Request& request,
                                 std::span<const graph::VertexId> servers) {
  NFVM_SPAN("appro_multi/build_shared_oracle");
  NFVM_OBS_ONLY(util::Stopwatch oracle_watch;)
  SharedOracle oracle;
  oracle.ctx = &ctx;
  oracle.request = &request;
  oracle.tables = TerminalTables(ctx.cost_graph.num_vertices());
  // One parallel fan-out over destination + server trees, primed into (and
  // served from) the context's shared tree table.
  std::vector<graph::VertexId> sources(request.destinations.begin(),
                                       request.destinations.end());
  sources.insert(sources.end(), servers.begin(), servers.end());
  auto trees = context_trees(ctx, sources);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    oracle.tables.set(sources[i], std::move(trees[i]));
  }
  // Registered last so the source always resolves to ctx.sp_source, even
  // when it doubles as a destination or an eligible server.
  oracle.tables.set_unowned(request.source, &ctx.sp_source);
  NFVM_HDR_OBSERVE("core.shared_closure.oracle_us", oracle_watch.elapsed_us());
  return oracle;
}

SharedOracle build_shared_oracle(const WorkContext& ctx,
                                 const nfv::Request& request) {
  return build_shared_oracle(ctx, request, ctx.eligible_servers);
}

std::size_t nearest_table_root(
    std::span<const std::shared_ptr<const graph::ShortestPaths>> tables,
    graph::VertexId v) {
  std::size_t nearest = tables.size();
  double nearest_dist = graph::kInfiniteDistance;
  for (std::size_t i = 0; i < tables.size(); ++i) {
    if (tables[i]->dist[v] < nearest_dist) {
      nearest_dist = tables[i]->dist[v];
      nearest = i;
    }
  }
  return nearest;
}

std::vector<graph::VertexId> beam_server_pool(
    const WorkContext& ctx,
    std::span<const std::shared_ptr<const graph::ShortestPaths>> dest_trees,
    std::size_t beam_width) {
  std::vector<graph::VertexId> pool(ctx.eligible_servers.begin(),
                                    ctx.eligible_servers.end());
  if (beam_width == 0 || beam_width >= pool.size()) return pool;
  std::vector<std::pair<double, graph::VertexId>> scored;
  scored.reserve(pool.size());
  for (const graph::VertexId v : pool) {
    double dest_sum = 0.0;
    for (const auto& tree : dest_trees) dest_sum += tree->dist[v];
    const double score = ctx.sp_source.dist[v] + ctx.server_chain_cost[v] +
                         dest_sum / static_cast<double>(dest_trees.size());
    scored.emplace_back(score, v);
  }
  // (score, vertex) pairs give a deterministic total order, so the top-m
  // sets are nested as m grows.
  std::sort(scored.begin(), scored.end());
  pool.clear();
  for (std::size_t i = 0; i < beam_width; ++i) pool.push_back(scored[i].second);
  std::sort(pool.begin(), pool.end());
  return pool;
}

ComboBounds::ComboBounds(
    const WorkContext& ctx, const nfv::Request& request,
    std::span<const graph::VertexId> pool,
    std::span<const std::shared_ptr<const graph::ShortestPaths>> dest_trees)
    : num_servers_(pool.size()), num_dests_(dest_trees.size()) {
  const std::size_t n = num_servers_;
  const std::size_t nd = num_dests_;
  constexpr double kInf = graph::kInfiniteDistance;

  // Widened zero-cost star: the source plus every POOL server adjacent to
  // it (a superset of any single combination's star — shortcuts can only
  // get shorter, so distance bounds stay admissible).
  std::vector<graph::VertexId> star{request.source};
  for (const graph::Adjacency& adj : ctx.cost_graph.neighbors(request.source)) {
    if (!std::binary_search(pool.begin(), pool.end(), adj.neighbor)) continue;
    if (std::find(star.begin(), star.end(), adj.neighbor) == star.end()) {
      star.push_back(adj.neighbor);
    }
  }
  double maxstar = 0.0;
  for (const graph::VertexId a : star) {
    maxstar = std::max(maxstar, ctx.sp_source.dist[a]);
  }
  // snear[d]: exact distance from destination d to the widened star.
  std::vector<double> snear(nd, kInf);
  for (std::size_t d = 0; d < nd; ++d) {
    for (const graph::VertexId a : star) {
      snear[d] = std::min(snear[d], dest_trees[d]->dist[a]);
    }
  }

  virt_.resize(n);
  sdist_.resize(n);
  ddirect_.resize(n * nd);
  star_member_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const graph::VertexId v = pool[i];
    virt_[i] = ctx.sp_source.dist[v] + ctx.server_chain_cost[v];
    sdist_[i] = ctx.sp_source.dist[v];
    star_member_[i] =
        std::find(star.begin(), star.end(), v) != star.end() ? 1 : 0;
    for (std::size_t d = 0; d < nd; ++d) {
      ddirect_[i * nd + d] = dest_trees[d]->dist[v];
    }
  }

  dsrc_.resize(nd);
  ddraw_.assign(nd * nd, 0.0);
  for (std::size_t d = 0; d < nd; ++d) {
    dsrc_[d] = dest_trees[d]->dist[request.source];
    for (std::size_t e = 0; e < nd; ++e) {
      ddraw_[d * nd + e] = dest_trees[d]->dist[request.destinations[e]];
    }
  }

  // The widened star's rows serve the prefix bounds; the rows of the star
  // {s_k} (snear = dsrc_, maxstar = 0) serve every star-free candidate.
  reach_.resize(n * nd);
  free_reach_.resize(n * nd);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < nd; ++d) {
      reach_[i * nd + d] = reach(i, d, maxstar, snear);
      free_reach_[i * nd + d] = reach(i, d, 0.0, dsrc_);
    }
  }
  pair_rows(snear, rdist_, rmin_);
  pair_rows(dsrc_, free_rdist_, free_rmin_);

  suffix_min_virt_.assign(n + 1, kInf);
  suffix_min_sv_.assign((n + 1) * nd, kInf);
  suffix_min_reach_.assign((n + 1) * nd, kInf);
  for (std::size_t j = n; j-- > 0;) {
    suffix_min_virt_[j] = std::min(virt_[j], suffix_min_virt_[j + 1]);
    for (std::size_t d = 0; d < nd; ++d) {
      suffix_min_sv_[j * nd + d] =
          std::min(virt_[j] + reach_[j * nd + d], suffix_min_sv_[(j + 1) * nd + d]);
      suffix_min_reach_[j * nd + d] =
          std::min(reach_[j * nd + d], suffix_min_reach_[(j + 1) * nd + d]);
    }
  }
}

ComboBounds::Partial ComboBounds::root() const {
  Partial p;
  p.min_sv.assign(num_dests_, graph::kInfiniteDistance);
  p.min_reach.assign(num_dests_, graph::kInfiniteDistance);
  return p;
}

ComboBounds::Partial ComboBounds::extend(const Partial& prefix,
                                         std::size_t i) const {
  Partial p = prefix;
  p.min_virt = std::min(p.min_virt, virt_[i]);
  for (std::size_t d = 0; d < num_dests_; ++d) {
    p.min_sv[d] = std::min(p.min_sv[d], virt_[i] + reach_[i * num_dests_ + d]);
    p.min_reach[d] = std::min(p.min_reach[d], reach_[i * num_dests_ + d]);
  }
  return p;
}

double ComboBounds::reach(std::size_t i, std::size_t d, double maxstar,
                          std::span<const double> snear) const {
  // Triangle inequality through the source: d(v, star) >= d(s_k, v) -
  // max_a d(s_k, a). Keeps the bound free of per-server tables.
  const double server_snear = std::max(0.0, sdist_[i] - maxstar);
  return std::min(ddirect_[i * num_dests_ + d], server_snear + snear[d]);
}

void ComboBounds::pair_rows(std::span<const double> snear,
                            std::vector<double>& rdist,
                            std::vector<double>& rmin) const {
  const std::size_t nd = num_dests_;
  rdist.assign(nd * nd, graph::kInfiniteDistance);
  rmin.assign(nd, graph::kInfiniteDistance);
  for (std::size_t d = 0; d < nd; ++d) {
    for (std::size_t e = 0; e < nd; ++e) {
      if (e == d) continue;
      rdist[d * nd + e] = std::min(ddraw_[d * nd + e], snear[d] + snear[e]);
      rmin[d] = std::min(rmin[d], rdist[d * nd + e]);
    }
  }
}

double ComboBounds::candidate_bound(std::span<const std::size_t> idx) const {
  const std::size_t nd = num_dests_;
  // The combination is complete, so its zero-cost star is exactly
  // {s_k} ∪ (combo ∩ N(s_k)) — usually far smaller than the pool-level
  // star the prefix bounds must assume. Rebuild the closure entries
  // against it; every entry only grows versus the pool-level relaxation,
  // so this bound dominates bound_from over the prefix minima (and when
  // the combo has no source-adjacent server the star degenerates to
  // {s_k}, where the triangle inequality makes the entries exact).
  double maxstar = 0.0;
  bool any_star = false;
  for (const std::size_t i : idx) {
    if (star_member_[i] != 0) {
      any_star = true;
      maxstar = std::max(maxstar, sdist_[i]);
    }
  }
  // A star-free combination's star is {s_k}: its rows were computed once.
  std::span<const double> rdist = free_rdist_;
  std::span<const double> rmin = free_rmin_;
  std::vector<double>& snear = scratch_snear_;
  if (any_star) {
    snear.assign(dsrc_.begin(), dsrc_.end());
    for (const std::size_t i : idx) {
      if (star_member_[i] == 0) continue;
      for (std::size_t d = 0; d < nd; ++d) {
        snear[d] = std::min(snear[d], ddirect_[i * nd + d]);
      }
    }
    pair_rows(snear, scratch_rdist_, scratch_rmin_);
    rdist = scratch_rdist_;
    rmin = scratch_rmin_;
  }

  double min_virt = graph::kInfiniteDistance;
  std::vector<double>& min_sv = scratch_min_sv_;
  std::vector<double>& min_reach = scratch_min_reach_;
  min_sv.assign(nd, graph::kInfiniteDistance);
  min_reach.assign(nd, graph::kInfiniteDistance);
  for (const std::size_t i : idx) {
    min_virt = std::min(min_virt, virt_[i]);
    for (std::size_t d = 0; d < nd; ++d) {
      const double r =
          any_star ? reach(i, d, maxstar, snear) : free_reach_[i * nd + d];
      min_sv[d] = std::min(min_sv[d], virt_[i] + r);
      min_reach[d] = std::min(min_reach[d], r);
    }
  }
  return bound_from(min_virt, min_sv, min_reach, rdist, rmin);
}

double ComboBounds::subtree_bound(const Partial& prefix,
                                  std::size_t next) const {
  const std::size_t nd = num_dests_;
  std::vector<double>& min_sv = scratch_min_sv_;
  std::vector<double>& min_reach = scratch_min_reach_;
  min_sv.resize(nd);
  min_reach.resize(nd);
  for (std::size_t d = 0; d < nd; ++d) {
    min_sv[d] = std::min(prefix.min_sv[d], suffix_min_sv_[next * nd + d]);
    min_reach[d] =
        std::min(prefix.min_reach[d], suffix_min_reach_[next * nd + d]);
  }
  return bound_from(std::min(prefix.min_virt, suffix_min_virt_[next]), min_sv,
                    min_reach, rdist_, rmin_);
}

/// Why the sweep bounds the tree: for ANY subset S of the terminals, the
/// admitted tree T contains a subtree spanning S, so w(T) >= SMT(S); the
/// classic Steiner-ratio argument (double the tree, Euler tour, shortcut,
/// drop the heaviest of the |S| cycle edges) gives
/// MST(closure|S) <= 2(1 - 1/|S|) * SMT(S), and entrywise M <= closure
/// makes MST(M|S) a usable stand-in. Hence
///   w(T) >= MST(M|S) * |S| / (2(|S| - 1)).
/// Small, spread-out subsets enjoy a multiplier far better than the
/// full-set 1/2 (|S| = 2 gives 1, |S| = 3 gives 3/4, ...), so the sweep
/// takes the max over the farthest-point-insertion prefixes S_1 ⊂ S_2 ⊂ …
/// seeded at s' — the prefixes that pack the most metric spread into the
/// fewest terminals. |S| = 2 reproduces the single-path bound; |S| = |D|+1
/// sharpens the old half-MST bound by (|D|+1)/|D|.
double SubsetMstSweep::operator()(std::span<const double> min_sv,
                                  std::span<const double> rdist) {
  const std::size_t nd = min_sv.size();
  const std::size_t t = nd + 1;

  // Farthest-point insertion order from s'. to_set[j] tracks each pending
  // destination's distance to the chosen set; ties break toward the
  // smaller terminal index, so the order — and with it the bound — is a
  // pure function of the matrix entries (thread-count invariant). A chosen
  // terminal's to_set is -1, below every distance, so no scan picks it
  // again.
  to_set_.resize(t);
  row_.resize(t);
  parent_.resize(t);
  up_.resize(t);
  heavy_.resize(t);
  heavy_id_.resize(t);
  kept_.resize(2 * t);
  on_path_.resize(t);
  order_.assign(1, 0);
  std::size_t pick = 0;
  double far = -1.0;
  for (std::size_t j = 1; j < t; ++j) {
    to_set_[j] = min_sv[j - 1];
    if (to_set_[j] > far) {
      far = to_set_[j];
      pick = j;
    }
  }
  double best_bound = 0.0;
  for (std::size_t s = 2; s <= t; ++s) {  // |S| once this step's p is in
    if (far >= graph::kInfiniteDistance) return graph::kInfiniteDistance;
    const std::size_t p = pick;
    to_set_[p] = -1.0;
    // One row of M serves both the pending terminals' distances to the set
    // and the chosen terminals' edges to p; the same pass finds the next
    // pick.
    const double p_sv = min_sv[p - 1];
    row_[0] = p_sv;
    pick = 0;
    far = -1.0;
    const auto update = [&](std::size_t j) {
      to_set_[j] = std::min(to_set_[j], row_[j]);
      if (to_set_[j] > far) {
        far = to_set_[j];
        pick = j;
      }
    };
    for (std::size_t j = 1; j < p; ++j) {
      row_[j] = std::min(rdist[(j - 1) * nd + (p - 1)], min_sv[j - 1] + p_sv);
      update(j);
    }
    for (std::size_t j = p + 1; j < t; ++j) {
      row_[j] = std::min(rdist[(p - 1) * nd + (j - 1)], p_sv + min_sv[j - 1]);
      update(j);
    }

    const double mst = insert(p);
    best_bound = std::max(best_bound, mst * static_cast<double>(s) /
                                          (2.0 * static_cast<double>(s - 1)));
  }
  return best_bound;
}

/// Vertex insertion (Chin and Houck, 1978). By the cycle property the MST
/// of S ∪ {p} lies in MST(S) plus p's |S| edges. Walking the tree children
/// before parents, each vertex x is joined to its parent u after x's whole
/// subtree: edge (x, u) then closes one cycle, made of x's path to p, u's
/// path to p and (x, u), and its heaviest edge is dropped. heavy_ tracks
/// the heaviest edge on each vertex's path to p, so each join is O(1) and
/// the insertion O(|S|). Only comparisons choose the kept edges, so they
/// form an exact MST of the given entries.
double SubsetMstSweep::insert(std::size_t p) {
  const std::size_t t = row_.size();
  for (const std::size_t x : order_) {
    heavy_[x] = row_[x];
    heavy_id_[x] = t + x;
    kept_[x] = 1;
    kept_[t + x] = 1;
  }
  for (std::size_t i = order_.size(); i-- > 1;) {
    const std::size_t x = order_[i];
    const std::size_t u = parent_[x];
    const double link = up_[x];
    if (link >= heavy_[x] && link >= heavy_[u]) {
      kept_[x] = 0;
    } else if (heavy_[x] >= heavy_[u]) {
      kept_[heavy_id_[x]] = 0;
    } else {
      // u's old path to p is cut; it now reaches p through x.
      kept_[heavy_id_[u]] = 0;
      if (link >= heavy_[x]) {
        heavy_[u] = link;
        heavy_id_[u] = x;
      } else {
        heavy_[u] = heavy_[x];
        heavy_id_[u] = heavy_id_[x];
      }
    }
  }

  // Re-root at p. The dropped tree edges cut the old tree into parts, and
  // each part keeps exactly one edge to p: the parent pointers on the path
  // from that edge's endpoint x up to the part's top turn around. Listing
  // those paths ahead of the vertices that keep their parents yields the
  // next parents-first order. The weight is summed in that order.
  const std::size_t old_root = order_[0];
  ++stamp_;
  next_order_.assign(1, p);
  double mst = 0.0;
  for (const std::size_t x : order_) {
    if (!kept_[t + x]) continue;
    std::size_t below = p;
    double weight = row_[x];
    for (std::size_t v = x;;) {
      const bool top = v == old_root || !kept_[v];
      const std::size_t above = parent_[v];
      const double above_weight = up_[v];
      parent_[v] = below;
      up_[v] = weight;
      mst += weight;
      on_path_[v] = stamp_;
      next_order_.push_back(v);
      if (top) break;
      below = v;
      weight = above_weight;
      v = above;
    }
  }
  for (const std::size_t x : order_) {
    if (on_path_[x] == stamp_) continue;
    mst += up_[x];
    next_order_.push_back(x);
  }
  std::swap(order_, next_order_);
  return mst;
}

double ComboBounds::bound_from(double min_virt, std::span<const double> min_sv,
                               std::span<const double> min_reach,
                               std::span<const double> rdist,
                               std::span<const double> rmin) const {
  const std::size_t nd = num_dests_;
  // (a) Single-path: any spanning tree contains an s'-to-d path of weight
  // >= min_sv[d] for every destination.
  double single_path = 0.0;
  double min_sv_all = graph::kInfiniteDistance;
  for (std::size_t d = 0; d < nd; ++d) {
    single_path = std::max(single_path, min_sv[d]);
    min_sv_all = std::min(min_sv_all, min_sv[d]);
  }
  if (single_path >= graph::kInfiniteDistance) return graph::kInfiniteDistance;
  // (b) One virtual edge (s' has positive degree, all its edges virtual)
  // plus half-radius ball packing over the destinations in the real forest
  // left by removing s'.
  double forest = min_virt;
  for (std::size_t d = 0; d < nd; ++d) {
    forest += 0.5 * std::min(rmin[d], min_reach[d]);
  }
  // (c) Ball packing over all terminals {s'} ∪ D in the auxiliary metric.
  double packing = min_sv_all;
  for (std::size_t d = 0; d < nd; ++d) {
    packing += std::min(rmin[d], min_sv[d]);
  }
  packing *= 0.5;
  // (d) Scaled subset-MST sweep over the closure lower bounds; subsumes
  // the single-path bound (a) via its |S| = 2 prefix.
  const double subset_mst = sweep_(min_sv, rdist);
  const double bound =
      std::max(std::max(single_path, forest), std::max(packing, subset_mst));
  // Tiny relative slack so float rounding in the bound arithmetic can never
  // nudge a mathematically-tight bound above the (differently-ordered)
  // evaluated sum — strict-inequality pruning then provably keeps the exact
  // argmin. Costs carry ~1e-14 relative noise; 1e-9 dwarfs it while giving
  // up a negligible sliver of pruning power.
  return bound * (1.0 - 1e-9);
}

SharedComboSolver::SharedComboSolver(const SharedOracle& oracle,
                                     const AuxOverlay& aux)
    : oracle_(oracle), aux_(aux), request_(*oracle.request) {
  // Zero-cost star: the source plus combo servers adjacent to it.
  star_.push_back({request_.source, graph::kInvalidEdge});
  for (const graph::Adjacency& adj :
       oracle_.ctx->cost_graph.neighbors(request_.source)) {
    if (std::find(aux.combo.begin(), aux.combo.end(), adj.neighbor) ==
        aux.combo.end()) {
      continue;
    }
    bool seen = false;
    for (const StarEntry& e : star_) seen |= (e.vertex == adj.neighbor);
    if (!seen) star_.push_back({adj.neighbor, adj.edge});
  }
  via_sprime_.resize(request_.destinations.size());
  for (std::size_t j = 0; j < request_.destinations.size(); ++j) {
    via_sprime_[j] = best_via_sprime(request_.destinations[j]);
  }
}

graph::SteinerResult SharedComboSolver::solve() const {
  graph::KmbKernel& kernel = graph::KmbKernel::thread_local_kernel();
  const std::size_t t = request_.destinations.size() + 1;  // s' + dests
  if (!kernel.closure_mst(t, [this](std::size_t a, std::size_t b) {
        return closure_distance(a, b);
      })) {
    return graph::SteinerResult{};  // disconnected closure
  }
  kernel.begin_union(aux_.num_real_edges + aux_.combo.size());
  for (const auto& [a, b] : kernel.closure_edges()) expand(kernel, a, b);

  // Counted as a KMB finish over an external union.
  NFVM_SPAN("steiner/kmb_finish");
  NFVM_COUNTER_INC("graph.steiner.kmb_finish.runs");
  const std::span<const graph::VertexId> terms = kernel.distinct_terminals(
      aux_.num_vertices(), std::span(&aux_.virtual_source, 1),
      request_.destinations);
  if (terms.size() == 1) return graph::SteinerResult{true, {}, 0.0};
  return kernel.finish_union(aux_.num_vertices(), terms,
                             [this](graph::EdgeId e) { return aux_.record(e); });
}

SharedComboSolver::Via SharedComboSolver::vertex_distance(
    const graph::ShortestPaths& sp_x, graph::VertexId y) const {
  Via best;
  best.value = sp_x.dist[y];
  double in = graph::kInfiniteDistance;
  graph::VertexId pb = graph::kInvalidVertex;
  for (const StarEntry& e : star_) {
    if (sp_x.dist[e.vertex] < in) {
      in = sp_x.dist[e.vertex];
      pb = e.vertex;
    }
  }
  double out = graph::kInfiniteDistance;
  graph::VertexId qb = graph::kInvalidVertex;
  for (const StarEntry& e : star_) {
    const double d = oracle_.from(e.vertex).dist[y];
    if (d < out) {
      out = d;
      qb = e.vertex;
    }
  }
  if (in + out < best.value) {
    best.value = in + out;
    best.p = pb;
    best.q = qb;
  }
  return best;
}

SharedComboSolver::ViaSprime SharedComboSolver::best_via_sprime(
    graph::VertexId y) const {
  ViaSprime best;
  for (std::size_t i = 0; i < aux_.combo.size(); ++i) {
    const graph::VertexId v = aux_.combo[i];
    const double virt = aux_.virtual_weight[i];
    const Via via = vertex_distance(oracle_.from(v), y);
    if (virt + via.value < best.value) {
      best.value = virt + via.value;
      best.server = v;
      best.inner = via;
    }
  }
  return best;
}

/// Closure distance between terminal indices (0 = s', j >= 1 = dest j-1).
double SharedComboSolver::closure_distance(std::size_t a, std::size_t b) const {
  if (a > b) std::swap(a, b);
  if (a == 0) return via_sprime_[b - 1].value;
  const graph::VertexId x = request_.destinations[a - 1];
  const graph::VertexId y = request_.destinations[b - 1];
  const double direct = vertex_distance(oracle_.from(x), y).value;
  const double via_virtual = via_sprime_[a - 1].value + via_sprime_[b - 1].value;
  return std::min(direct, via_virtual);
}

void SharedComboSolver::emit_via(graph::KmbKernel& kernel,
                                 const graph::ShortestPaths& sp_x,
                                 graph::VertexId y, const Via& via) const {
  if (via.p == graph::kInvalidVertex) {
    kernel.add_path(sp_x, y);
    return;
  }
  kernel.add_path(sp_x, via.p);
  for (const StarEntry& e : star_) {
    if ((e.vertex == via.p || e.vertex == via.q) &&
        e.edge != graph::kInvalidEdge) {
      kernel.add_edge(e.edge);
    }
  }
  kernel.add_path(oracle_.from(via.q), y);
}

void SharedComboSolver::emit_sprime(graph::KmbKernel& kernel,
                                    std::size_t dest_index) const {
  const ViaSprime& vs = via_sprime_[dest_index];
  const std::size_t combo_index = static_cast<std::size_t>(
      std::find(aux_.combo.begin(), aux_.combo.end(), vs.server) -
      aux_.combo.begin());
  kernel.add_edge(static_cast<graph::EdgeId>(aux_.num_real_edges + combo_index));
  emit_via(kernel, oracle_.from(vs.server), request_.destinations[dest_index],
           vs.inner);
}

void SharedComboSolver::expand(graph::KmbKernel& kernel, std::size_t a,
                               std::size_t b) const {
  if (a > b) std::swap(a, b);
  if (a == 0) {
    emit_sprime(kernel, b - 1);
    return;
  }
  const graph::VertexId x = request_.destinations[a - 1];
  const graph::VertexId y = request_.destinations[b - 1];
  const Via direct = vertex_distance(oracle_.from(x), y);
  const double via_virtual = via_sprime_[a - 1].value + via_sprime_[b - 1].value;
  if (via_virtual < direct.value) {
    emit_sprime(kernel, a - 1);
    emit_sprime(kernel, b - 1);
  } else {
    emit_via(kernel, oracle_.from(x), y, direct);
  }
}

SprimeTable::SprimeTable(const SharedOracle& oracle,
                         std::span<const graph::VertexId> pool)
    : num_dests_(oracle.request->destinations.size()),
      value_(pool.size() * num_dests_, graph::kInfiniteDistance),
      source_adjacent_(pool.size(), 0) {
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const AuxOverlay aux = build_aux_overlay(*oracle.ctx, oracle.request->source,
                                             std::span(&pool[i], 1));
    // The overlay zeroes exactly the (s_k, v) edges of source-adjacent
    // combination servers, the same test the solver's star uses.
    if (!aux.zero_edges.empty()) {
      source_adjacent_[i] = 1;
      continue;
    }
    const SharedComboSolver solver(oracle, aux);
    for (std::size_t d = 0; d < num_dests_; ++d) {
      value_[i * num_dests_ + d] = solver.sprime_distance(d);
    }
  }
}

}  // namespace nfvm::core
