// The scaled subset-MST sweep as ComboBounds first computed it: Prim from
// scratch on every farthest-point prefix, O(t³) for t terminals.
// core::SubsetMstSweep inserts one terminal per prefix instead; the tests
// require it to agree with this copy to within rounding.
#pragma once

#include <span>

namespace nfvm::reference {

/// Same matrix, prefixes and result as core::SubsetMstSweep: the largest
/// MST(M|S)·|S| / (2(|S| - 1)) over the farthest-point-insertion prefixes S
/// seeded at s', infinity when a prefix cannot be extended by a finite
/// entry. Each prefix's MST weight is summed in Prim's order.
double scaled_subset_mst_prim(std::span<const double> min_sv,
                              std::span<const double> rdist);

}  // namespace nfvm::reference
