// Deterministic branch-and-bound over Appro_Multi server-combination
// prefixes.
//
// The legacy sweep materializes every combination of at most K servers and
// evaluates all of them. This search walks the same combination space as a
// prefix tree level by level (size-major; within a level candidates are
// taken in ascending lower-bound order so the incumbent tightens early),
// seeds the incumbent with the K = 1 level, and uses the admissible
// ComboBounds lower bounds to
//   * skip evaluating a combination whose bound already exceeds the
//     incumbent cost — the per-level bound ordering makes this a single
//     bulk cut of the level's tail, and
//   * stop extending a prefix when every completion from the remaining
//     server pool is bounded above the incumbent.
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

bool combo_key_less(const ComboKey& a, const ComboKey& b);

struct ComboSearchResult {
  /// True when some evaluated combination was connected (and above the
  /// floor, when one was given).
  bool found = false;
  ComboKey key;
  /// Steiner tree edges (auxiliary-graph ids) of the found combination.
  std::vector<graph::EdgeId> tree_edges;
  /// Combinations evaluated for the first time during this pass. A later
  /// pass of the same search reuses earlier evaluations without counting
  /// (or budgeting) them again, so the sum over passes counts each
  /// combination at most once.
  std::size_t evaluated = 0;
  /// Combinations discarded by the bound without evaluation — skipped
  /// candidates count one each, a killed prefix counts every unvisited
  /// completion (saturating).
  std::size_t pruned = 0;
  /// True when the evaluation budget stopped the search before the
  /// combination space was exhausted; the result is then the best among the
  /// combinations evaluated so far (matching the legacy budget valve).
  bool budget_exhausted = false;
};

class ComboSearch {
 public:
  /// The evaluator maps strictly increasing pool indices to the
  /// combination's Steiner tree. It must be deterministic (bitwise-equal
  /// results for equal inputs) and safe to call from worker threads.
  using Evaluator = std::function<ComboEvaluation(std::span<const std::size_t>)>;

  ComboSearch(std::size_t pool_size, const ComboBounds& bounds,
              std::size_t max_servers, Evaluator evaluator);

  /// The minimum-key combination, or — when `floor` is non-null — the
  /// minimum-key combination with key strictly greater than `*floor`.
  /// The floor reproduces the legacy realize-fallthrough: callers re-search
  /// with the rejected candidate's key to obtain the next-cheapest
  /// candidate. The floor cannot tighten pruning (an equal-cost,
  /// larger-index candidate still qualifies), so bounds only compare
  /// against this pass's own incumbent. At most `max_evaluations`
  /// evaluator calls are spent. Every pass walks the same candidate order
  /// as a fresh search would; candidate bounds, subtree bounds and
  /// evaluations met by an earlier pass are reused instead of recomputed.
  ComboSearchResult next_best(const ComboKey* floor,
                              std::size_t max_evaluations);

 private:
  /// One combination some pass has built. Candidates live for the whole
  /// search, stored per size in prefix-tree order: the children of a
  /// prefix are created together, the first time a pass expands it, so a
  /// later pass finds them by position without any lookup.
  struct Cand {
    std::vector<std::size_t> idx;
    ComboBounds::Partial partial;
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

  Cand make_cand(const std::vector<std::size_t>& prefix_idx,
                 const ComboBounds::Partial& prefix_partial, std::size_t i) const;

  std::size_t pool_size_ = 0;
  const ComboBounds* bounds_ = nullptr;
  std::size_t max_servers_ = 0;
  Evaluator evaluator_;
  /// levels_[k - 1]: every size-k candidate built so far.
  std::vector<std::vector<Cand>> levels_;
};

}  // namespace nfvm::core
