// Chain splitting - relaxing the paper's consolidation assumption.
//
// The paper assumes "without loss of generality" that a request's whole
// service chain is consolidated onto one VM (Section III-B). In practice a
// chain may not fit one server's residual capacity, or different servers may
// price resources differently. This module places the chain's functions
// *individually*, in order, along a walk from the source:
//
//   s_k --walk--> v_1 [NF_1] --walk--> v_2 [NF_2] ... v_m [NF_m] --tree--> D_k
//
// via a layered-graph shortest path: layer i holds the network state "first
// i functions applied"; movement edges stay within a layer, processing edges
// (v, i) -> (v, i+1) exist at servers with enough residual computing for
// NF_{i+1} and cost its computing price. After the last function, a Steiner
// tree (KMB) from the final server spans the destinations.
//
// Cost model and traversal accounting follow the rest of the library: every
// link traversal of the walk and the tree pays c_e * b_k; each placement
// pays that server's unit price for that NF's demand only.
#pragma once

#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/pseudo_tree.h"
#include "nfv/request.h"
#include "nfv/resources.h"
#include "topology/topology.h"

namespace nfvm::core {

struct ChainSplitOptions {
  /// Non-null enables capacity-aware pruning (links below b_k, and
  /// processing edges only where the per-NF demand fits the residual).
  const nfv::ResourceState* resources = nullptr;
};

struct ChainSplitSolution {
  bool admitted = false;
  std::string reject_reason;
  /// tree.servers lists the distinct servers hosting at least one NF; the
  /// per-destination walks include the full placement walk.
  PseudoMulticastTree tree;
  /// Correct per-NF resource charging (PseudoMulticastTree::footprint would
  /// charge the whole chain per server, which is wrong for splits).
  nfv::Footprint footprint;
  /// (function, server) in chain order; length == chain length.
  std::vector<std::pair<nfv::NetworkFunction, graph::VertexId>> placements;
};

/// Computes a split-chain pseudo-multicast tree. Honors
/// `request.max_delay_ms` like the consolidated algorithms (candidate
/// filter). Throws std::invalid_argument on malformed input.
ChainSplitSolution chain_split_multicast(const topo::Topology& topo,
                                         const LinearCosts& costs,
                                         const nfv::Request& request,
                                         const ChainSplitOptions& options = {});

}  // namespace nfvm::core
