#include "graph/steiner.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "graph/apsp.h"
#include "graph/dijkstra.h"
#include "graph/kmb_kernel.h"
#include "graph/sp_engine.h"
#include "graph/union_find.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace nfvm::graph {
namespace {

/// An owned copy of the sorted distinct terminals, for callers that build
/// further Steiner trees (and so reuse the kernel's scratch) while holding
/// them.
std::vector<VertexId> distinct_terminals(const Graph& g,
                                         std::span<const VertexId> terminals) {
  const std::span<const VertexId> distinct =
      KmbKernel::thread_local_kernel().distinct_terminals(g.num_vertices(),
                                                          terminals);
  return std::vector<VertexId>(distinct.begin(), distinct.end());
}

EdgeRecord graph_record(const Graph& g, EdgeId e) {
  const Edge& ed = g.edge(e);
  return EdgeRecord{e, ed.u, ed.v, ed.weight};
}

/// KMB steps 2-5 against per-terminal shortest-path tables (one table per
/// entry of `terms`, in order). Both kmb_steiner (freshly computed tables)
/// and kmb_steiner_from_tables (caller-cached tables) funnel through here,
/// which is what makes the two bit-identical.
SteinerResult kmb_from_terminal_tables(const Graph& g,
                                       std::span<const VertexId> terms,
                                       std::span<const ShortestPaths* const> sp) {
  for (std::size_t i = 1; i < terms.size(); ++i) {
    if (!sp[0]->reachable(terms[i])) return SteinerResult{};  // disconnected
  }

  // Step 2: MST of the metric closure (Prim on the t x t distance matrix).
  // Every terminal is reachable from terms[0], so the closure is connected.
  KmbKernel& kernel = KmbKernel::thread_local_kernel();
  {
    NFVM_SPAN("steiner/kmb/closure_mst");
    kernel.closure_mst(terms.size(), [&](std::size_t i, std::size_t j) {
      return sp[i]->dist[terms[j]];
    });
  }

  NFVM_SPAN("steiner/kmb/expand_prune");
  // Step 3: expand closure edges into shortest paths; union of their edges.
  kernel.begin_union(g.num_edges());
  for (const auto& [i, j] : kernel.closure_edges()) kernel.add_path(*sp[i], terms[j]);
  // Steps 4-5: MST of the union, then non-terminal leaf pruning.
  return kernel.finish_union(g.num_vertices(), terms,
                             [&g](EdgeId e) { return graph_record(g, e); });
}

}  // namespace

SteinerResult kmb_steiner(const Graph& g, std::span<const VertexId> terminals) {
  NFVM_SPAN("steiner/kmb");
  NFVM_COUNTER_INC("graph.steiner.kmb.runs");
  const std::vector<VertexId> terms = distinct_terminals(g, terminals);
  SteinerResult result;
  if (terms.size() == 1) {
    result.connected = true;
    return result;
  }

  // Step 1: shortest paths from every terminal, one slot per terminal so
  // the fan-out is deterministic regardless of thread count.
  std::vector<ShortestPaths> sp(terms.size());
  {
    NFVM_SPAN("steiner/kmb/terminal_sssp");
    util::ThreadPool::global().parallel_for(
        terms.size(), [&](std::size_t i) { sp[i] = dijkstra(g, terms[i]); });
  }
  std::vector<const ShortestPaths*> tables(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) tables[i] = &sp[i];
  return kmb_from_terminal_tables(g, terms, tables);
}

SteinerResult kmb_steiner_from_tables(
    const Graph& g, std::span<const VertexId> terminals,
    const std::function<const ShortestPaths&(VertexId)>& table_for) {
  NFVM_SPAN("steiner/kmb_from_tables");
  NFVM_COUNTER_INC("graph.steiner.kmb.runs");
  const std::span<const VertexId> terms =
      KmbKernel::thread_local_kernel().distinct_terminals(g.num_vertices(),
                                                          terminals);
  SteinerResult result;
  if (terms.size() == 1) {
    result.connected = true;
    return result;
  }
  thread_local std::vector<const ShortestPaths*> tables;
  tables.resize(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) tables[i] = &table_for(terms[i]);
  return kmb_from_terminal_tables(g, terms, tables);
}

SteinerResult improve_steiner(const Graph& g, SteinerResult current,
                              std::span<const VertexId> terminals,
                              std::size_t max_rounds) {
  if (!current.connected) {
    throw std::invalid_argument("improve_steiner: input tree is disconnected");
  }
  const std::vector<VertexId> terms = distinct_terminals(g, terminals);
  if (terms.size() <= 1) return current;

  for (std::size_t round = 0; round < max_rounds; ++round) {
    bool improved = false;
    std::vector<bool> in_tree(g.num_vertices(), false);
    for (EdgeId e : current.edges) {
      in_tree[g.edge(e).u] = true;
      in_tree[g.edge(e).v] = true;
    }
    for (VertexId t : terms) in_tree[t] = true;

    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (in_tree[v]) continue;
      std::vector<VertexId> extended(terms);
      extended.push_back(v);
      SteinerResult candidate = kmb_steiner(g, extended);
      if (!candidate.connected) continue;
      // Drop v again if it turned out useless (leaf pruning against the
      // real terminal set).
      candidate = kmb_finish(g, candidate.edges, terms);
      if (candidate.connected && candidate.weight + 1e-12 < current.weight) {
        current = std::move(candidate);
        improved = true;
        // Refresh tree membership for subsequent insertions this round.
        std::fill(in_tree.begin(), in_tree.end(), false);
        for (EdgeId e : current.edges) {
          in_tree[g.edge(e).u] = true;
          in_tree[g.edge(e).v] = true;
        }
        for (VertexId t : terms) in_tree[t] = true;
      }
    }
    if (!improved) break;
  }
  return current;
}

SteinerResult kmb_finish(const Graph& g, std::span<const EdgeId> union_edges,
                         std::span<const VertexId> terminals) {
  NFVM_SPAN("steiner/kmb_finish");
  NFVM_COUNTER_INC("graph.steiner.kmb_finish.runs");
  KmbKernel& kernel = KmbKernel::thread_local_kernel();
  const std::span<const VertexId> terms =
      kernel.distinct_terminals(g.num_vertices(), terminals);
  if (terms.size() == 1) return SteinerResult{true, {}, 0.0};
  return kernel.finish_edges(g, union_edges, terms);
}

SteinerResult kmb_finish(std::size_t num_vertices,
                         std::span<const EdgeRecord> union_edges,
                         std::span<const VertexId> terminals) {
  NFVM_SPAN("steiner/kmb_finish");
  NFVM_COUNTER_INC("graph.steiner.kmb_finish.runs");
  KmbKernel& kernel = KmbKernel::thread_local_kernel();
  const std::span<const VertexId> terms =
      kernel.distinct_terminals(num_vertices, terminals);
  if (terms.size() == 1) return SteinerResult{true, {}, 0.0};
  return kernel.finish_records(num_vertices, union_edges, terms);
}

SteinerResult takahashi_matsuyama_steiner(const Graph& g,
                                          std::span<const VertexId> terminals) {
  NFVM_SPAN("steiner/takahashi_matsuyama");
  NFVM_COUNTER_INC("graph.steiner.tm.runs");
  const std::vector<VertexId> terms = distinct_terminals(g, terminals);
  SteinerResult result;
  if (terms.size() == 1) {
    result.connected = true;
    return result;
  }

  const std::size_t n = g.num_vertices();
  std::vector<bool> in_tree(n, false);
  in_tree[terms[0]] = true;
  std::vector<VertexId> tree_vertices;
  tree_vertices.reserve(n);
  tree_vertices.push_back(terms[0]);
  std::vector<VertexId> pending(terms.begin() + 1, terms.end());

  // Each round: one multi-source grow step on the shared engine (every
  // tree vertex seeded at distance zero), attaching the nearest pending
  // terminal along its shortest path. The engine settles ties by
  // (distance, vertex id) and stops before relaxing the settled terminal —
  // exactly the std::priority_queue loop this replaces — and brings the
  // bucket-queue specialization to unit-weight graphs for free.
  SpEngine& engine = SpEngine::thread_local_engine();
  while (!pending.empty()) {
    const VertexId reached = engine.grow_step(g, tree_vertices, pending);
    if (reached == kInvalidVertex) return result;  // disconnected

    pending.erase(std::find(pending.begin(), pending.end(), reached));
    for (VertexId v = reached; !in_tree[v]; v = engine.parent_of(v)) {
      in_tree[v] = true;
      tree_vertices.push_back(v);
      result.edges.push_back(engine.parent_edge_of(v));
      result.weight += g.weight(engine.parent_edge_of(v));
    }
  }
  std::sort(result.edges.begin(), result.edges.end());
  result.connected = true;
  return result;
}

SteinerResult steiner_tree(const Graph& g, std::span<const VertexId> terminals,
                           SteinerEngine engine) {
  switch (engine) {
    case SteinerEngine::kKmb:
      return kmb_steiner(g, terminals);
    case SteinerEngine::kTakahashiMatsuyama:
      return takahashi_matsuyama_steiner(g, terminals);
  }
  throw std::invalid_argument("steiner_tree: unknown engine");
}

SteinerResult exact_steiner(const Graph& g, std::span<const VertexId> terminals) {
  // One parallel APSP build shared across the whole DP (and reusable by the
  // caller via the overload below when sweeping many terminal sets).
  const AllPairsShortestPaths apsp(g, /*keep_parents=*/true);
  return exact_steiner(g, terminals, apsp);
}

SteinerResult exact_steiner(const Graph& g, std::span<const VertexId> terminals,
                            const AllPairsShortestPaths& apsp) {
  NFVM_SPAN("steiner/exact_dreyfus_wagner");
  NFVM_COUNTER_INC("graph.steiner.exact.runs");
  if (apsp.num_vertices() != g.num_vertices()) {
    throw std::invalid_argument("exact_steiner: APSP built from a different graph");
  }
  const std::vector<VertexId> terms = distinct_terminals(g, terminals);
  SteinerResult result;
  if (terms.size() == 1) {
    result.connected = true;
    return result;
  }
  if (terms.size() > kExactSteinerMaxTerminals) {
    throw std::invalid_argument("exact_steiner: too many terminals for the DP");
  }

  const std::size_t n = g.num_vertices();
  const auto sp = [&apsp](VertexId s) -> const ShortestPaths& {
    return apsp.source_tree(s);
  };
  for (std::size_t i = 1; i < terms.size(); ++i) {
    if (!sp(terms[0]).reachable(terms[i])) return result;
  }

  // Dreyfus-Wagner over subsets of terms[1..]; the tree always implicitly
  // contains terms[0] via the final query dp[full][terms[0]].
  const std::size_t bits = terms.size() - 1;
  const std::size_t num_masks = std::size_t{1} << bits;
  std::vector<std::vector<double>> dp(num_masks, std::vector<double>(n, kInfiniteDistance));

  // Reconstruction records. kind: 0 = base (path from terminal), 1 = merge
  // (submask stored in aux), 2 = extend (vertex stored in aux).
  struct Choice {
    std::uint8_t kind = 0;
    std::uint32_t aux = 0;
  };
  std::vector<std::vector<Choice>> choice(num_masks, std::vector<Choice>(n));

  for (std::size_t b = 0; b < bits; ++b) {
    const VertexId term = terms[b + 1];
    const std::size_t mask = std::size_t{1} << b;
    for (VertexId v = 0; v < n; ++v) {
      dp[mask][v] = sp(term).dist[v];
      choice[mask][v] = Choice{0, static_cast<std::uint32_t>(term)};
    }
  }

  for (std::size_t mask = 1; mask < num_masks; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // singletons already done
    auto& row = dp[mask];
    // Merge two subtrees at v.
    for (std::size_t sub = (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask) {
      const std::size_t rest = mask ^ sub;
      if (sub > rest) continue;  // each unordered split once
      const auto& a = dp[sub];
      const auto& b = dp[rest];
      for (VertexId v = 0; v < n; ++v) {
        const double cand = a[v] + b[v];
        if (cand < row[v]) {
          row[v] = cand;
          choice[mask][v] = Choice{1, static_cast<std::uint32_t>(sub)};
        }
      }
    }
    // Extend through the metric closure: one relaxation round suffices
    // because sp[u].dist is already the full shortest-path metric.
    for (VertexId v = 0; v < n; ++v) {
      for (VertexId u = 0; u < n; ++u) {
        if (u == v || dp[mask][u] >= kInfiniteDistance) continue;
        const double cand = dp[mask][u] + sp(u).dist[v];
        if (cand < row[v]) {
          row[v] = cand;
          choice[mask][v] = Choice{2, static_cast<std::uint32_t>(u)};
        }
      }
    }
  }

  // Reconstruct the edge set.
  KmbKernel& kernel = KmbKernel::thread_local_kernel();
  kernel.begin_union(g.num_edges());
  struct Frame {
    std::size_t mask;
    VertexId v;
  };
  std::vector<Frame> stack{{num_masks - 1, terms[0]}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Choice c = choice[f.mask][f.v];
    switch (c.kind) {
      case 0: {  // base: path terminal -> v
        kernel.add_path(sp(c.aux), f.v);
        break;
      }
      case 1: {  // merge at v
        stack.push_back(Frame{c.aux, f.v});
        stack.push_back(Frame{f.mask ^ c.aux, f.v});
        break;
      }
      case 2: {  // extend u -> v
        kernel.add_path(sp(c.aux), f.v);
        stack.push_back(Frame{f.mask, static_cast<VertexId>(c.aux)});
        break;
      }
      default:
        throw std::logic_error("exact_steiner: corrupt choice table");
    }
  }

  // Ties can make the reconstructed union contain a cycle of equal total
  // weight; clean it up into a tree of the same (optimal) weight.
  return kernel.finish_union(g.num_vertices(), terms,
                             [&g](EdgeId e) { return graph_record(g, e); });
}

bool is_steiner_tree(const Graph& g, std::span<const EdgeId> edges,
                     std::span<const VertexId> terminals) {
  const std::vector<VertexId> terms = distinct_terminals(g, terminals);
  if (terms.size() == 1) return edges.empty();

  UnionFind uf(g.num_vertices());
  std::vector<bool> touched(g.num_vertices(), false);
  for (EdgeId e : edges) {
    if (!g.has_edge(e)) return false;
    const Edge& ed = g.edge(e);
    if (!uf.unite(ed.u, ed.v)) return false;  // cycle (or self-loop)
    touched[ed.u] = true;
    touched[ed.v] = true;
  }
  for (VertexId t : terms) {
    if (!touched[t]) return false;
    if (uf.find(t) != uf.find(terms[0])) return false;
  }
  // Connected over touched vertices: #touched vertices == #edges + 1.
  std::size_t touched_count = 0;
  for (bool b : touched) touched_count += b ? 1 : 0;
  return touched_count == edges.size() + 1;
}

}  // namespace nfvm::graph
