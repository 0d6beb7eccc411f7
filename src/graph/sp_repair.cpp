#include "graph/sp_repair.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace nfvm::graph {

bool tree_unaffected(const Graph& g, const ShortestPaths& tree,
                     std::span<const EdgeChange> changes) {
  for (const EdgeChange& c : changes) {
    if (c.new_weight < c.old_weight) return false;
    const Edge& ed = g.edge(c.edge);
    if (tree.parent_edge[ed.u] == c.edge || tree.parent_edge[ed.v] == c.edge) {
      return false;
    }
  }
  return true;
}

// --- SpEngine: tie checks and the local repair -------------------------------

bool SpEngine::tight_parent(const ShortestPaths& tree, VertexId v,
                            const std::uint8_t* edge_mask, VertexId& parent,
                            EdgeId& parent_edge) {
  const double dv = tree.dist[v];
  tight_.clear();
  parent = kInvalidVertex;
  parent_edge = kInvalidEdge;
  double best = kInfiniteDistance;
  for (const CsrEntry& entry : view_.out(v)) {
    if (edge_mask != nullptr && edge_mask[entry.edge] == 0) continue;
    const VertexId u = entry.neighbor;
    if (u == v) continue;  // a self-loop never relaxes its own endpoint
    const double du = tree.dist[u];
    if (du + entry.weight != dv) continue;  // not tight (or u unreachable)
    if (!(du < dv)) return false;           // tie with v itself
    bool seen = false;
    for (const auto& [dw, w] : tight_) {
      if (w == u) {  // a later parallel edge from the same neighbour
        seen = true;
        break;
      }
      if (dw == du) return false;  // two tight neighbours at one distance
    }
    if (seen) continue;
    tight_.emplace_back(du, u);
    // Parallel u-v edges appear in ascending edge id in both endpoints'
    // adjacency, so the first tight one seen here is the first one u's own
    // scan relaxes.
    if (du < best) {
      best = du;
      parent = u;
      parent_edge = entry.edge;
    }
  }
  return parent != kInvalidVertex;
}

bool SpEngine::tie_free_prepared(const ShortestPaths& tree,
                                 const std::uint8_t* edge_mask) {
  for (VertexId v = 0; v < tree.dist.size(); ++v) {
    if (v == tree.source || tree.dist[v] == kInfiniteDistance) continue;
    VertexId parent = kInvalidVertex;
    EdgeId parent_edge = kInvalidEdge;
    // Demanding agreement with the tree's own parent as well keeps a tree
    // whose parents the local rule would not reproduce away from repair.
    if (!tight_parent(tree, v, edge_mask, parent, parent_edge) ||
        parent != tree.parent[v] || parent_edge != tree.parent_edge[v]) {
      return false;
    }
  }
  return true;
}

bool SpEngine::tie_free(const Graph& g, const ShortestPaths& tree,
                        std::span<const std::uint8_t> edge_mask) {
  if (tree.dist.size() != g.num_vertices()) {
    throw std::invalid_argument("tie_free: tree does not match the graph");
  }
  view_.refresh(g);
  return tie_free_prepared(tree, edge_mask.empty() ? nullptr : edge_mask.data());
}

bool SpEngine::repair_prepared(const Graph& g, ShortestPaths& tree,
                               std::span<const EdgeChange> changes,
                               const std::uint8_t* edge_mask) {
  const std::size_t n = view_.num_vertices();
  const std::span<const Edge> edges = g.edges();
  const auto allowed = [edge_mask](EdgeId e) {
    return edge_mask == nullptr || edge_mask[e] != 0;
  };
  // stamp_ == generation_ marks the invalidated region, settled_ the
  // vertices re-settled below, mark_ the vertices queued for a parent check.
  const std::uint32_t gen = generation_;
  if (++mark_generation_ == 0) {
    std::fill(mark_.begin(), mark_.end(), 0);
    mark_generation_ = 1;
  }
  recheck_.clear();
  const auto recheck = [this](VertexId v) {
    if (mark_[v] == mark_generation_) return;
    mark_[v] = mark_generation_;
    recheck_.push_back(v);
  };

  // The old tree's children, grouped by parent (counting sort).
  child_start_.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (tree.parent[v] != kInvalidVertex) ++child_start_[tree.parent[v] + 1];
  }
  for (std::size_t i = 0; i < n; ++i) child_start_[i + 1] += child_start_[i];
  child_cursor_.assign(child_start_.begin(), child_start_.end() - 1);
  child_list_.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    if (tree.parent[v] != kInvalidVertex) {
      child_list_[child_cursor_[tree.parent[v]]++] = v;
    }
  }
  const auto children = [this](VertexId v) {
    return std::span<const VertexId>(child_list_.data() + child_start_[v],
                                     child_start_[v + 1] - child_start_[v]);
  };

  // 1. Invalidate the subtrees under changed tree edges.
  region_.clear();
  for (const EdgeChange& c : changes) {
    const Edge& ed = edges[c.edge];
    recheck(ed.u);  // an endpoint's tight set may change with the weight
    recheck(ed.v);
    for (const VertexId x : {ed.u, ed.v}) {
      if (tree.parent_edge[x] != c.edge || stamp_[x] == gen) continue;
      std::size_t head = region_.size();
      stamp_[x] = gen;
      region_.push_back(x);
      while (head < region_.size()) {
        for (const VertexId child : children(region_[head++])) {
          if (stamp_[child] == gen) continue;
          stamp_[child] = gen;
          region_.push_back(child);
        }
      }
    }
  }
  for (const VertexId v : region_) {
    tree.dist[v] = kInfiniteDistance;
    recheck(v);  // left unreachable unless re-settled below
  }

  // 2. Seed the region from its boundary, and both ends of every decreased
  // edge from the other end. Every seed is queued before the first pop.
  queue_.clear();
  for (const VertexId v : region_) {
    for (const CsrEntry& entry : view_.out(v)) {
      if (!allowed(entry.edge) || stamp_[entry.neighbor] == gen) continue;
      const double nd = tree.dist[entry.neighbor] + entry.weight;
      if (nd < tree.dist[v]) {
        tree.dist[v] = nd;
        queue_.push(v, nd);
      }
    }
  }
  const auto relax = [&](VertexId from, VertexId to, double w) {
    if (stamp_[from] == gen) return;  // settles (and relaxes) later
    const double nd = tree.dist[from] + w;
    if (nd < tree.dist[to]) {
      tree.dist[to] = nd;
      queue_.push(to, nd);
    }
  };
  for (const EdgeChange& c : changes) {
    if (!(c.new_weight < c.old_weight) || !allowed(c.edge)) continue;
    const Edge& ed = edges[c.edge];
    relax(ed.u, ed.v, ed.weight);
    relax(ed.v, ed.u, ed.weight);
  }

  // 3. Re-settle by Dijkstra. When u pops, every vertex closer than u holds
  // its final label, so u's parent is decided in the same scan that
  // relaxes its edges: the closest tight neighbour, provided the tight
  // neighbours' distances are pairwise distinct. An edge whose weight
  // vanishes next to dist[u] (zero, or absorbed by rounding) could tie u
  // with a neighbour whose label is not final yet, so it counts as a tie.
  NFVM_OBS_ONLY(std::uint64_t touched = region_.size();)
  while (!queue_.empty()) {
    const VertexId u = queue_.pop();
    const double du = tree.dist[u];
    NFVM_OBS_ONLY(if (stamp_[u] != gen) ++touched;)
    settled_[u] = gen;
    tight_.clear();
    VertexId parent = kInvalidVertex;
    EdgeId parent_edge = kInvalidEdge;
    double best = kInfiniteDistance;
    for (const CsrEntry& entry : view_.out(u)) {
      if (!allowed(entry.edge)) continue;
      const VertexId v = entry.neighbor;
      if (v == u) continue;  // a self-loop never relaxes its own endpoint
      if (du + entry.weight == du) return false;
      const double dv = tree.dist[v];
      if (dv + entry.weight == du) {  // v is a tight in-neighbour of u
        if (!(dv < du)) return false;
        bool seen = false;
        for (const auto& [dw, w] : tight_) {
          if (w == v) {
            seen = true;
            break;
          }
          if (dw == dv) return false;
        }
        if (!seen) {
          tight_.emplace_back(dv, v);
          if (dv < best) {
            best = dv;
            parent = v;
            parent_edge = entry.edge;
          }
        }
        continue;  // dv < du: v is final, nothing to relax
      }
      const double nd = du + entry.weight;
      if (nd < dv) {
        tree.dist[v] = nd;
        queue_.push(v, nd);
      } else if (nd == dv) {
        recheck(v);  // u joins v's tight set
      }
    }
    if (parent == kInvalidVertex) return false;  // cannot happen: safe exit
    tree.parent[u] = parent;
    tree.parent_edge[u] = parent_edge;
    for (const VertexId child : children(u)) recheck(child);
  }
  NFVM_COUNTER_ADD("graph.sp_repair.vertices_touched", touched);

  // 4. Vertices that were not re-settled but whose tight set may have
  // changed: endpoints of changed edges, old children and new tight
  // targets of re-settled vertices, and region vertices now unreachable.
  for (const VertexId v : recheck_) {
    if (settled_[v] == gen || v == tree.source) continue;
    if (tree.dist[v] == kInfiniteDistance) {
      tree.parent[v] = kInvalidVertex;
      tree.parent_edge[v] = kInvalidEdge;
      continue;
    }
    if (!tight_parent(tree, v, edge_mask, tree.parent[v], tree.parent_edge[v])) {
      return false;
    }
  }
  return true;
}

RepairOutcome SpEngine::repair(const Graph& g, ShortestPaths& tree,
                               std::span<const EdgeChange> changes,
                               std::span<const std::uint8_t> edge_mask,
                               bool& tie_free) {
  if (!g.has_vertex(tree.source) || tree.dist.size() != g.num_vertices()) {
    throw std::invalid_argument("repair: tree does not match the graph");
  }
  if (!edge_mask.empty() && edge_mask.size() < g.num_edges()) {
    throw std::invalid_argument("repair: edge mask smaller than edge count");
  }
  if (tree_unaffected(g, tree, changes)) {
    NFVM_COUNTER_INC("graph.sp_repair.trees_kept");
    return RepairOutcome::kKept;
  }
  const std::uint8_t* mask = edge_mask.empty() ? nullptr : edge_mask.data();
  prepare(g);
  if (tie_free && repair_prepared(g, tree, changes, mask)) {
    NFVM_COUNTER_INC("graph.sp_repair.trees_repaired");
    return RepairOutcome::kRepaired;
  }
  NFVM_COUNTER_INC("graph.sp_repair.tie_fallbacks");
  queue_.clear();  // a repair that met a tie may stop with vertices queued
  compute_prepared(tree, mask, unit_rows(mask));
  tie_free = tie_free_prepared(tree, mask);
  return RepairOutcome::kRecomputed;
}

// --- SpTreeStore --------------------------------------------------------------

SpTreeStore::SpTreeStore(std::span<const VertexId> roots) {
  for (const VertexId r : roots) {
    if (r >= entry_of_.size()) entry_of_.resize(static_cast<std::size_t>(r) + 1, 0);
    if (entry_of_[r] != 0) continue;  // duplicate root
    entries_.emplace_back();
    entry_of_[r] = static_cast<std::uint32_t>(entries_.size());
  }
}

void SpTreeStore::clear() {
  for (Entry& entry : entries_) entry = Entry{};
  fresh_.clear();
  bound_ = false;
  effective_.clear();
  log_.clear();
  log_base_ = 0;
}

void SpTreeStore::sync(const Graph& g, std::span<const std::uint8_t> edge_mask) {
  const std::size_t m = g.num_edges();
  const std::span<const Edge> edges = g.edges();
  const auto effective = [&](EdgeId e) {
    return edge_mask.empty() || edge_mask[e] != 0 ? edges[e].weight
                                                  : kInfiniteDistance;
  };
  if (!bound_ || uid_ != g.uid() || effective_.size() != m) {
    clear();
    bound_ = true;
    uid_ = g.uid();
    effective_.resize(m);
    for (EdgeId e = 0; e < m; ++e) effective_[e] = effective(e);
    return;
  }
  for (EdgeId e = 0; e < m; ++e) {
    const double w = effective(e);
    if (w != effective_[e]) {
      log_.push_back(LogEntry{e, effective_[e]});
      effective_[e] = w;
    }
  }
  // Bound the log: keep the last m entries. A tree current at an older
  // position is rebuilt in full on its next use (its change set would
  // cover a large share of the graph anyway).
  if (log_.size() > 2 * m + 64) {
    const std::size_t drop = log_.size() - m;
    log_.erase(log_.begin(), log_.begin() + static_cast<std::ptrdiff_t>(drop));
    log_base_ += drop;
  }
}

std::vector<EdgeChange> SpTreeStore::changes_since(std::uint64_t since) {
  if (seen_.size() < effective_.size()) seen_.resize(effective_.size(), 0);
  if (++seen_generation_ == 0) {
    std::fill(seen_.begin(), seen_.end(), 0);
    seen_generation_ = 1;
  }
  std::vector<EdgeChange> changes;
  for (std::size_t k = since - log_base_; k < log_.size(); ++k) {
    const EdgeId e = log_[k].edge;
    if (seen_[e] == seen_generation_) continue;
    seen_[e] = seen_generation_;
    // The first entry after `since` holds the weight the tree was built
    // against; an edge that has moved back since is no change at all.
    if (log_[k].old_weight != effective_[e]) {
      changes.push_back(EdgeChange{e, log_[k].old_weight, effective_[e]});
    }
  }
  return changes;
}

void SpTreeStore::update(const Graph& g, std::span<const VertexId> sources,
                         std::span<const std::uint8_t> edge_mask) {
  NFVM_SPAN("graph/sp_tree_update");
  for (const VertexId s : sources) {
    if (!g.has_vertex(s)) throw std::out_of_range("dijkstra: invalid source vertex");
  }
  if (!edge_mask.empty() && edge_mask.size() < g.num_edges()) {
    throw std::invalid_argument("dijkstra: edge mask smaller than edge count");
  }
  sync(g, edge_mask);
  const std::uint64_t now = log_end();
  ++updates_;

  // Persistent trees that need an engine: a full run (changes < 0) or a
  // repair against change set `changes`. Entries current at the same
  // position share one change set.
  struct Task {
    Entry* entry = nullptr;
    std::ptrdiff_t changes = -1;
  };
  std::vector<Task> tasks;
  std::vector<std::pair<std::uint64_t, std::vector<EdgeChange>>> change_sets;
  fresh_sources_.clear();

  for (const VertexId s : sources) {
    if (s >= entry_of_.size() || entry_of_[s] == 0) {
      fresh_sources_.push_back(s);
      continue;
    }
    Entry& entry = entries_[entry_of_[s] - 1];
    if (entry.listed_in == updates_) continue;  // a repeated root
    entry.listed_in = updates_;
    std::ptrdiff_t set = -1;
    if (!entry.tree.dist.empty() && entry.synced_at >= log_base_) {
      const auto it = std::find_if(
          change_sets.begin(), change_sets.end(),
          [&](const auto& cs) { return cs.first == entry.synced_at; });
      if (it == change_sets.end()) {
        change_sets.emplace_back(entry.synced_at, changes_since(entry.synced_at));
        set = static_cast<std::ptrdiff_t>(change_sets.size()) - 1;
      } else {
        set = it - change_sets.begin();
      }
      const std::vector<EdgeChange>& changes = change_sets[set].second;
      if (tree_unaffected(g, entry.tree, changes)) {
        NFVM_COUNTER_INC("graph.sp_repair.trees_kept");
        entry.synced_at = now;
        continue;
      }
      // A change set touching a quarter of all edges is cheaper to redo.
      if (4 * changes.size() > g.num_edges()) set = -1;
    }
    entry.tree.source = s;
    entry.synced_at = now;
    tasks.push_back(Task{&entry, set});
  }

  // The other sources' fresh trees and the persistent trees' repairs run
  // as one task list, so a pool opens one region per update.
  fresh_.clear();
  const std::span<ShortestPaths* const> fresh = fresh_.add(g, fresh_sources_, edge_mask);
  const auto run_task = [&](std::size_t k) {
    SpEngine& engine = SpEngine::thread_local_engine();
    if (k < fresh.size()) {
      engine.compute(g, *fresh[k], edge_mask);
      return;
    }
    const Task& task = tasks[k - fresh.size()];
    Entry& entry = *task.entry;
    if (task.changes >= 0) {
      engine.repair(g, entry.tree, change_sets[task.changes].second, edge_mask,
                    entry.tie_free);
      return;
    }
    engine.compute(g, entry.tree, edge_mask);
    entry.tie_free = engine.tie_free(g, entry.tree, edge_mask);
  };
  const std::size_t num_tasks = fresh.size() + tasks.size();
  util::ThreadPool& pool = util::ThreadPool::global();
  if (pool.num_threads() > 1 && num_tasks > 1) {
    pool.parallel_for(num_tasks, run_task);
  } else {
    for (std::size_t k = 0; k < num_tasks; ++k) run_task(k);
  }
}

const ShortestPaths& SpTreeStore::from(VertexId v) const {
  if (v >= entry_of_.size() || entry_of_[v] == 0) return fresh_.from(v);
  const Entry& entry = entries_[entry_of_[v] - 1];
  if (entry.listed_in != updates_ || entry.tree.dist.empty()) {
    throw std::logic_error("SpTreeStore: the last update did not list this root");
  }
  return entry.tree;
}

}  // namespace nfvm::graph
