#include "reference/subset_mst_sweep.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "graph/dijkstra.h"

namespace nfvm::reference {

double scaled_subset_mst_prim(std::span<const double> min_sv,
                              std::span<const double> rdist) {
  const std::size_t num_dests = min_sv.size();
  const std::size_t t = num_dests + 1;
  const auto entry = [&](std::size_t a, std::size_t b) {
    if (a > b) std::swap(a, b);
    if (a == 0) return min_sv[b - 1];
    return std::min(rdist[(a - 1) * num_dests + (b - 1)],
                    min_sv[a - 1] + min_sv[b - 1]);
  };

  // Farthest-point insertion order from s'; ties break toward the smaller
  // terminal index.
  std::vector<std::size_t> order(1, 0);
  std::vector<double> to_set(t, graph::kInfiniteDistance);
  std::vector<char> chosen(t, 0);
  chosen[0] = 1;
  for (std::size_t j = 1; j < t; ++j) to_set[j] = min_sv[j - 1];
  // MST weight of each chosen prefix via Prim restricted to `order`.
  std::vector<double> prim(t, graph::kInfiniteDistance);
  std::vector<char> in_tree;
  double best_bound = 0.0;
  for (std::size_t step = 1; step < t; ++step) {
    std::size_t pick = 0;
    double far = -1.0;
    for (std::size_t j = 1; j < t; ++j) {
      if (!chosen[j] && to_set[j] > far) {
        far = to_set[j];
        pick = j;
      }
    }
    if (far >= graph::kInfiniteDistance) return graph::kInfiniteDistance;
    chosen[pick] = 1;
    order.push_back(pick);
    for (std::size_t j = 1; j < t; ++j) {
      if (!chosen[j]) to_set[j] = std::min(to_set[j], entry(pick, j));
    }

    const std::size_t s = order.size();  // |S| terminals in this prefix
    double mst = 0.0;
    std::fill(prim.begin(), prim.begin() + s, graph::kInfiniteDistance);
    prim[0] = 0.0;  // indices into `order`; seed at s'
    in_tree.assign(s, 0);
    for (std::size_t grown = 0; grown < s; ++grown) {
      std::size_t next = s;
      for (std::size_t i = 0; i < s; ++i) {
        if (!in_tree[i] && (next == s || prim[i] < prim[next])) next = i;
      }
      mst += prim[next];
      in_tree[next] = 1;
      for (std::size_t i = 0; i < s; ++i) {
        if (!in_tree[i]) {
          prim[i] = std::min(prim[i], entry(order[next], order[i]));
        }
      }
    }
    best_bound = std::max(best_bound, mst * static_cast<double>(s) /
                                          (2.0 * static_cast<double>(s - 1)));
  }
  return best_bound;
}

}  // namespace nfvm::reference
