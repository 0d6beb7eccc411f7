// Disjoint-set union with union by size and path halving.
#pragma once

#include <cstddef>
#include <vector>

namespace nfvm::graph {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n);

  /// Representative of x's set. Throws std::out_of_range on a bad index.
  std::size_t find(std::size_t x);

  /// Merges the sets of a and b; returns false if already merged.
  bool unite(std::size_t a, std::size_t b);

  bool connected(std::size_t a, std::size_t b) { return find(a) == find(b); }

  /// Current number of disjoint sets.
  std::size_t num_sets() const noexcept { return num_sets_; }

  std::size_t size() const noexcept { return parent_.size(); }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
  std::size_t num_sets_;
};

}  // namespace nfvm::graph
