#include "graph/union_find.h"

#include <stdexcept>

namespace nfvm::graph {

UnionFind::UnionFind(std::size_t n) : parent_(n), size_(n, 1), num_sets_(n) {
  for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
}

std::size_t UnionFind::find(std::size_t x) {
  if (x >= parent_.size()) throw std::out_of_range("UnionFind::find: bad index");
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

bool UnionFind::unite(std::size_t a, std::size_t b) {
  std::size_t ra = find(a);
  std::size_t rb = find(b);
  if (ra == rb) return false;
  if (size_[ra] < size_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  size_[ra] += size_[rb];
  --num_sets_;
  return true;
}

}  // namespace nfvm::graph
