#include "reference/exact_steiner.h"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/dijkstra.h"
#include "graph/kmb_kernel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nfvm::reference {

using graph::Edge;
using graph::EdgeId;
using graph::EdgeRecord;
using graph::Graph;
using graph::kInfiniteDistance;
using graph::KmbKernel;
using graph::ShortestPaths;
using graph::SteinerResult;
using graph::VertexId;

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
  const std::span<const VertexId> distinct =
      KmbKernel::thread_local_kernel().distinct_terminals(g.num_vertices(),
                                                          terminals);
  const std::vector<VertexId> terms(distinct.begin(), distinct.end());
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
  return kernel.finish_union(g.num_vertices(), terms, [&g](EdgeId e) {
    const Edge& ed = g.edge(e);
    return EdgeRecord{e, ed.u, ed.v, ed.weight};
  });
}

}  // namespace nfvm::reference
