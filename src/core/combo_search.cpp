#include "core/combo_search.h"

#include <algorithm>
#include <utility>

#include "obs/hdr_histogram.h"
#include "obs/metrics.h"
#include "util/combinatorics.h"
#include "util/thread_pool.h"

namespace nfvm::core {
namespace {

/// Candidates are skipped/committed in fixed-size chunks so the skip
/// decisions (which read the incumbent) and the commits (which write it)
/// stay sequential while evaluations inside a chunk run on the pool. The
/// chunk size must NOT depend on the thread count, or the set of evaluated
/// combinations — and with it the pruning counters — would too. Smaller
/// chunks refresh the incumbent more often (more pruning), larger chunks
/// expose more parallelism per round; 8 keeps the bound-sorted tail cut
/// sharp while still feeding the common 4-8 thread pools.
constexpr std::size_t kChunk = 8;

bool key_less(double cost_a, const std::vector<std::size_t>& idx_a,
              double cost_b, const std::vector<std::size_t>& idx_b) {
  if (cost_a != cost_b) return cost_a < cost_b;
  if (idx_a.size() != idx_b.size()) return idx_a.size() < idx_b.size();
  return idx_a < idx_b;
}

}  // namespace

bool combo_key_less(const ComboKey& a, const ComboKey& b) {
  return key_less(a.cost, a.idx, b.cost, b.idx);
}

ComboSearch::ComboSearch(std::size_t pool_size, const ComboBounds& bounds,
                         std::size_t max_servers, Evaluator evaluator)
    : pool_size_(pool_size),
      bounds_(&bounds),
      max_servers_(std::min(max_servers, pool_size)),
      evaluator_(std::move(evaluator)),
      levels_(max_servers_) {}

ComboSearch::Cand ComboSearch::make_cand(
    const std::vector<std::size_t>& prefix_idx,
    const ComboBounds::Partial& prefix_partial, std::size_t i) const {
  Cand c;
  c.idx = prefix_idx;
  c.idx.push_back(i);
  c.partial = bounds_->extend(prefix_partial, i);
  c.bound = bounds_->candidate_bound(c.idx);
  return c;
}

ComboSearchResult ComboSearch::next_best(const ComboKey* floor,
                                         std::size_t max_evaluations) {
  ComboSearchResult res;
  const std::size_t n = pool_size_;
  // The incumbent; its key and tree are copied out once the pass ends. A
  // level's vector only grows while that level's candidates are generated,
  // before any commit in the level, so the pointer stays valid all pass.
  const Cand* best = nullptr;

  // Level-synchronous walk: the frontier holds the size-(k-1) prefixes that
  // survived the expansion filter. Extending each by every larger pool index
  // yields the level-k candidate set; within a level the candidates are
  // evaluated in ascending lower-bound order (ties toward the
  // lexicographically smaller index vector) so the incumbent tightens as
  // early as possible and — the bounds being sorted — every candidate past
  // the first one exceeding the incumbent can be pruned in bulk. The final
  // argmin does not depend on the evaluation order (see the header), and
  // the order itself is a pure function of the bounds, so the counters stay
  // thread-count invariant.
  std::vector<std::size_t> frontier;  // positions in levels_[k - 2]
  std::vector<std::size_t> to_eval;
  bool stop = false;
  for (std::size_t k = 1; k <= max_servers_ && !stop; ++k) {
    std::vector<Cand>& level = levels_[k - 1];
    std::vector<std::size_t> cands;  // positions in `level`
    if (k == 1) {
      if (level.empty()) {
        const ComboBounds::Partial root = bounds_->root();
        for (std::size_t i = 0; i < n; ++i) level.push_back(make_cand({}, root, i));
      }
      for (std::size_t i = 0; i < n; ++i) cands.push_back(i);
    } else {
      if (frontier.empty()) break;
      std::vector<Cand>& prefixes = levels_[k - 2];
      for (const std::size_t p : frontier) {
        Cand& prefix = prefixes[p];
        const std::size_t start = prefix.idx.back() + 1;
        if (prefix.first_child == kNoChildren) {
          prefix.first_child = level.size();
          for (std::size_t i = start; i < n; ++i) {
            level.push_back(make_cand(prefix.idx, prefix.partial, i));
          }
        }
        for (std::size_t i = start; i < n; ++i) {
          cands.push_back(prefix.first_child + (i - start));
        }
      }
    }
    std::sort(cands.begin(), cands.end(), [&level](std::size_t a, std::size_t b) {
      if (level[a].bound != level[b].bound) return level[a].bound < level[b].bound;
      return level[a].idx < level[b].idx;
    });

    bool level_done = false;
    for (std::size_t base = 0; base < cands.size() && !stop && !level_done;
         base += kChunk) {
      const std::size_t end = std::min(base + kChunk, cands.size());
      // Skip decisions are taken sequentially against the incumbent as of
      // the previous chunk; commits below update it in canonical order.
      // Candidates an earlier pass evaluated are committed without being
      // evaluated (or budgeted) again.
      to_eval.clear();
      std::size_t stop_at = end;
      for (std::size_t c = base; c < end; ++c) {
        const Cand& cand = level[cands[c]];
        if (best != nullptr && cand.bound > best->result.cost) {
          // Ascending bound order: every remaining candidate in this level
          // is bounded at least as high, so the whole tail is pruned. The
          // level is done, but deeper levels are not covered by these
          // bounds and still get their turn.
          res.pruned =
              util::saturating_add(res.pruned, cands.size() - c);
          level_done = true;
          stop_at = c;
          break;
        }
        if (cand.evaluated) continue;
        if (res.evaluated + to_eval.size() >= max_evaluations) {
          res.budget_exhausted = true;
          stop = true;
          stop_at = c;
          break;
        }
        to_eval.push_back(cands[c]);
      }

      util::ThreadPool::global().parallel_for(
          to_eval.size(), [&](std::size_t t) {
            Cand& c = level[to_eval[t]];
            c.result = evaluator_(c.idx);
          });
      res.evaluated += to_eval.size();
      for (const std::size_t pos : to_eval) {
        Cand& cand = level[pos];
        cand.evaluated = true;
        NFVM_OBS_ONLY(if (cand.result.connected && cand.result.cost > 0.0) {
          NFVM_HDR_OBSERVE("core.appro_multi.lb_tightness",
                           100.0 * cand.bound / cand.result.cost);
        })
      }

      for (std::size_t c = base; c < stop_at; ++c) {
        const Cand& cand = level[cands[c]];
        if (!cand.result.connected) continue;
        if (floor != nullptr &&
            !key_less(floor->cost, floor->idx, cand.result.cost, cand.idx)) {
          continue;
        }
        if (best == nullptr || key_less(cand.result.cost, cand.idx,
                                        best->result.cost, best->idx)) {
          best = &cand;
        }
      }
    }

    if (stop || k == max_servers_) break;

    std::vector<std::size_t> next;
    for (const std::size_t pos : cands) {
      Cand& c = level[pos];
      const std::size_t last = c.idx.back();
      if (last + 1 >= n) continue;
      if (best != nullptr) {
        if (!c.has_subtree_bound) {
          c.subtree_bound = bounds_->subtree_bound(c.partial, last + 1);
          c.has_subtree_bound = true;
        }
        if (c.subtree_bound > best->result.cost) {
          // Every completion draws 1..(max_k - k) more servers from the
          // n - 1 - last remaining pool indices.
          res.pruned = util::saturating_add(
              res.pruned,
              util::count_combinations_upto(n - 1 - last, max_servers_ - k));
          continue;
        }
      }
      next.push_back(pos);
    }
    frontier = std::move(next);
  }
  if (best != nullptr) {
    res.found = true;
    res.key = ComboKey{best->result.cost, best->idx};
    res.tree_edges = best->result.tree_edges;
  }
  return res;
}

}  // namespace nfvm::core
