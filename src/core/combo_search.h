// Deterministic branch-and-bound over Appro_Multi server-combination
// prefixes.
//
// An exhaustive sweep evaluates every combination of at most K servers (the
// test oracle reference::appro_multi keeps one). This search walks the same
// combination space as a prefix tree level by level (size-major; within a
// level candidates are taken in ascending lower-bound order so the
// incumbent tightens early), seeds the incumbent with the K = 1 level, and
// uses the admissible ComboBounds lower bounds to
//   * skip evaluating a combination whose bound already exceeds the
//     incumbent cost — the per-level bound ordering makes this a single
//     bulk cut of the level's tail, and
//   * stop extending a prefix when every completion from the remaining
//     server pool is bounded above the incumbent.
// With the shared engine's SprimeTable it also
//   * skips a dominated combination — one without a source-adjacent server
//     in which some member is the first minimum of d_i(s', y) for no
//     destination y — before computing its bound: it evaluates to the same
//     weight and tree as the combination without that member, whose
//     canonical key is smaller (docs/performance.md, "Dominated
//     combinations").
// Exactness does not depend on the evaluation order: pruning uses strict
// inequality (a pruned candidate has true cost >= bound > incumbent cost,
// so its canonical key exceeds the incumbent's regardless of indices),
// equal-cost candidates are never pruned and the sequential commits keep
// the full canonical-key minimum. The search therefore returns the SAME
// cost and SAME argmin combination as exhaustive enumeration — including
// exact floating-point ties — at any thread count (evaluations run in
// parallel, commits replay in a fixed order; the candidate order is a pure
// function of the bounds, never of timing).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/shared_closure.h"
#include "graph/graph.h"

namespace nfvm::core {

/// One combination's evaluation: the (deterministic) Steiner tree in the
/// auxiliary graph for that combination.
struct ComboEvaluation {
  bool connected = false;
  double cost = 0.0;
  std::vector<graph::EdgeId> tree_edges;
};

/// Canonical ranking key for a combination: cost, then combination size,
/// then lexicographic pool indices. The legacy sweep's stable sort by cost
/// over size-major/lex enumeration order ranks candidates by exactly this
/// key, so agreeing on the minimum key reproduces the legacy argmin.
struct ComboKey {
  double cost = 0.0;
  /// Strictly increasing indices into the server pool.
  std::vector<std::size_t> idx;
};

struct ComboSearchResult {
  /// True when some evaluated combination was connected (and above the
  /// floor, when one was given).
  bool found = false;
  ComboKey key;
  /// Steiner tree edges (auxiliary-graph ids) of the found combination.
  std::vector<graph::EdgeId> tree_edges;
  /// Combinations evaluated for the first time during this pass. A later
  /// pass of the same search reuses earlier evaluations without counting
  /// them again, so the sum over passes counts each combination at most
  /// once.
  std::size_t evaluated = 0;
  /// Combinations discarded without evaluation by the bounds or as
  /// dominated — skipped candidates count one each, a killed prefix counts
  /// every unvisited completion (saturating). Each pass counts what it
  /// discards, so a combination a fallthrough pass discards again counts
  /// again.
  std::size_t pruned = 0;
  /// The dominated share of `pruned`, counted the same way.
  std::size_t dominated = 0;
};

class ComboSearch {
 public:
  /// The evaluator maps strictly increasing pool indices to the
  /// combination's Steiner tree. It must be deterministic (bitwise-equal
  /// results for equal inputs) and safe to call from worker threads.
  using Evaluator = std::function<ComboEvaluation(std::span<const std::size_t>)>;

  /// A non-null `sprime` (one row per pool server) enables the dominance
  /// skip; it is exact only for the shared engine's evaluator.
  ComboSearch(std::size_t pool_size, const ComboBounds& bounds,
              std::size_t max_servers, Evaluator evaluator,
              const SprimeTable* sprime = nullptr);

  /// The minimum-key combination, or — when `floor` is non-null — the
  /// minimum-key combination with key strictly greater than `*floor`.
  /// The floor reproduces the legacy realize-fallthrough: callers re-search
  /// with the rejected candidate's key to obtain the next-cheapest
  /// candidate. The floor cannot tighten pruning (an equal-cost,
  /// larger-index candidate still qualifies), so bounds only compare
  /// against this pass's own incumbent. Every pass walks the same
  /// candidate order as a fresh search would; candidate bounds, subtree
  /// bounds and evaluations met by an earlier pass are reused instead of
  /// recomputed.
  ComboSearchResult next_best(const ComboKey* floor);

 private:
  static constexpr std::size_t kNoServer = static_cast<std::size_t>(-1);
  /// First minimum, over a candidate's members in pool order, of
  /// SprimeTable::value(., d) for one destination d.
  struct Route {
    double value = graph::kInfiniteDistance;
    std::size_t server = kNoServer;
  };

  /// One combination some pass has built. Candidates live for the whole
  /// search, stored per size in prefix-tree order: the children of a
  /// prefix are created together, the first time a pass expands it, so a
  /// later pass finds them by position without any lookup.
  struct Cand {
    std::vector<std::size_t> idx;
    ComboBounds::Partial partial;
    /// One Route per destination while the dominance test applies and has
    /// not fired (no source-adjacent member, not dominated); empty
    /// otherwise, and on the last level, which is never extended.
    std::vector<Route> routes;
    /// Pool index of a member routing no destination, kNoServer unless
    /// dominated. A dominated candidate has no bound and is never
    /// evaluated.
    std::size_t witness = kNoServer;
    double bound = 0.0;
    /// Position of the first child in the next level, kNoChildren until
    /// some pass expands this prefix.
    std::size_t first_child = kNoChildren;
    bool has_subtree_bound = false;
    double subtree_bound = 0.0;
    bool evaluated = false;
    ComboEvaluation result;
  };
  static constexpr std::size_t kNoChildren = static_cast<std::size_t>(-1);

  Cand make_cand(const Cand& prefix, std::size_t i) const;
  /// Carries the prefix's routes to `c` (the prefix plus pool index i) and
  /// sets c.witness when some member of `c` routes no destination.
  void route(const Cand& prefix, std::size_t i, Cand& c) const;

  std::size_t pool_size_ = 0;
  const ComboBounds* bounds_ = nullptr;
  std::size_t max_servers_ = 0;
  Evaluator evaluator_;
  const SprimeTable* sprime_ = nullptr;
  /// Largest source-adjacent pool index, kNoServer when there is none (or
  /// no table): a dominated prefix past it dominates its whole subtree.
  std::size_t last_source_adjacent_ = kNoServer;
  /// The empty prefix every size-1 candidate extends.
  Cand root_;
  /// levels_[k - 1]: every size-k candidate built so far.
  std::vector<std::vector<Cand>> levels_;
};

}  // namespace nfvm::core
