// Pseudo-multicast trees (paper Section III-B, Fig. 3).
//
// A pseudo-multicast tree is the routing structure realizing one NFV-enabled
// multicast request: a multicast tree plus the extra traversals needed so
// every destination receives traffic *after* it passed a service-chain
// server (e.g. processed packets sent back up a tree path and re-forwarded).
// Physically the same link can therefore carry the request's traffic more
// than once; `edge_uses` records that multiplicity, which is what capacity
// accounting charges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/dijkstra.h"
#include "graph/graph.h"
#include "nfv/request.h"
#include "nfv/resources.h"

namespace nfvm::core {

/// The realized path of one destination: the walk source -> destination and
/// where on that walk the service chain processes the traffic.
struct DestinationRoute {
  graph::VertexId destination = graph::kInvalidVertex;
  /// Server whose VM processes this destination's traffic.
  graph::VertexId server = graph::kInvalidVertex;
  /// Walk from the source to the destination (vertices, inclusive). May
  /// revisit vertices: backhaul detours are part of the walk.
  std::vector<graph::VertexId> walk;
  /// Index into `walk` of the processing point; walk[server_index] == server
  /// and every destination appears at or after this index.
  std::size_t server_index = 0;
};

struct PseudoMulticastTree {
  graph::VertexId source = graph::kInvalidVertex;
  /// Distinct servers hosting an instance of the request's chain (<= K).
  std::vector<graph::VertexId> servers;
  /// (edge, multiplicity) with multiplicity >= 1: how many times the
  /// request's traffic traverses the link. Distinct edges only.
  std::vector<std::pair<graph::EdgeId, int>> edge_uses;
  /// Per-destination realized routes.
  std::vector<DestinationRoute> routes;
  /// Implementation cost in the constructing algorithm's units (linear
  /// operational cost for the offline algorithms, normalized exponential
  /// weight for Online_CP, hops for SP).
  double cost = 0.0;

  /// Total number of link traversals (sum of multiplicities).
  std::size_t total_link_traversals() const;

  /// Distinct switches the tree touches (edge endpoints, the source and the
  /// chain servers), sorted ascending. These are the switches that need a
  /// forwarding-table entry for this multicast group.
  std::vector<graph::VertexId> touched_switches(const graph::Graph& g) const;

  /// The resources this tree consumes for `request`: bandwidth_mbps per
  /// traversal on every edge, the chain's computing demand on every server,
  /// and one forwarding-table entry per touched switch (`g` resolves edge
  /// endpoints).
  nfv::Footprint footprint(const nfv::Request& request, const graph::Graph& g) const;

  /// Backward-compatible overload without table entries (for deployments
  /// that do not track forwarding-table capacities).
  nfv::Footprint footprint(const nfv::Request& request) const;
};

/// Generation-stamped vertex marks: the SP baselines walk shortest-path
/// trees with them, so a walk marks what it visits and the next walk starts
/// unmarked in O(1). The owner keeps one across calls; not thread-safe.
class VertexMarks {
 public:
  /// Unmarks every vertex and sizes the marks for `num_vertices`.
  void reset(std::size_t num_vertices);
  /// Marks `v`; false when `v` was marked since the last reset.
  bool mark(graph::VertexId v) {
    if (stamp_[v] == generation_) return false;
    stamp_[v] = generation_;
    return true;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t generation_ = 0;
};

/// The price of the SP baselines' one-server pseudo-multicast tree: the
/// total_link_traversals() of the tree make_one_server_spt_tree assembles,
/// without assembling it. That is the hops of source -> server on
/// `from_source` plus the distinct edges of the server -> D_k paths on
/// `from_server`, counted by one parent walk per destination that stops at
/// the first vertex an earlier walk marked (a vertex other than the root
/// owns exactly one tree edge, its parent edge). The server must be
/// reachable on `from_source` and every destination on `from_server`.
std::size_t one_server_spt_traversals(const nfv::Request& request,
                                      graph::VertexId server,
                                      const graph::ShortestPaths& from_source,
                                      const graph::ShortestPaths& from_server,
                                      VertexMarks& marks);

/// Assembles the one-server pseudo-multicast tree used by the SP baselines:
/// the shortest path source -> server plus, for every destination, the
/// shortest path server -> destination (a shortest-path tree rooted at the
/// server). A link on both parts has multiplicity 2; links shared between
/// destinations count once. `from_source` and `from_server` must be
/// shortest-path results on the same graph, whose edge ids are physical.
/// Routes are written from parent pointers straight into their walks.
/// Throws std::invalid_argument when the server or a destination is
/// unreachable.
PseudoMulticastTree make_one_server_spt_tree(
    const nfv::Request& request, graph::VertexId server,
    const graph::ShortestPaths& from_source, const graph::ShortestPaths& from_server,
    double cost, VertexMarks& marks);

/// Sorted-vector accumulator for `edge_uses`: sorts the traversal list
/// (one entry per traversal, duplicates allowed) and run-length-counts it
/// into (edge, multiplicity) pairs with ascending distinct ids — the same
/// output as a std::map<EdgeId, int> accumulation without the per-node
/// allocations.
std::vector<std::pair<graph::EdgeId, int>> accumulate_edge_uses(
    std::vector<graph::EdgeId> traversals);

/// Structural validation of a pseudo-multicast tree against the physical
/// graph and the request:
///  - exactly one route per destination, each a contiguous walk in `g`
///    from the source to the destination,
///  - the service chain processes before delivery (server_index sound,
///    server is listed in `servers`),
///  - every edge a route walks is present in `edge_uses`,
///  - multiplicities are >= 1 and cost >= 0.
/// Returns true when valid; otherwise false with a diagnostic in `error`
/// (when non-null).
bool validate_pseudo_tree(const graph::Graph& g, const nfv::Request& request,
                          const PseudoMulticastTree& tree, std::string* error);

}  // namespace nfvm::core
