#include "core/pseudo_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/sp_engine.h"
#include "reference/online_reference.h"
#include "reference/support.h"
#include "util/rng.h"

namespace nfvm::core {
namespace {

/// Path graph 0-1-2-3 with the server at 1.
struct Fixture {
  graph::Graph g{4};
  nfv::Request request;
  PseudoMulticastTree tree;

  Fixture() {
    g.add_edge(0, 1, 1.0);  // e0
    g.add_edge(1, 2, 1.0);  // e1
    g.add_edge(2, 3, 1.0);  // e2

    request.id = 1;
    request.source = 0;
    request.destinations = {3};
    request.bandwidth_mbps = 100.0;
    request.chain = nfv::ServiceChain({nfv::NetworkFunction::kFirewall});

    tree.source = 0;
    tree.servers = {1};
    tree.edge_uses = {{0, 1}, {1, 1}, {2, 1}};
    DestinationRoute route;
    route.destination = 3;
    route.server = 1;
    route.walk = {0, 1, 2, 3};
    route.server_index = 1;
    tree.routes = {route};
    tree.cost = 3.0;
  }
};

TEST(PseudoTree, ValidTreePasses) {
  Fixture f;
  std::string error;
  EXPECT_TRUE(validate_pseudo_tree(f.g, f.request, f.tree, &error)) << error;
}

TEST(PseudoTree, TotalTraversals) {
  Fixture f;
  EXPECT_EQ(f.tree.total_link_traversals(), 3u);
  f.tree.edge_uses[1].second = 2;
  EXPECT_EQ(f.tree.total_link_traversals(), 4u);
}

TEST(PseudoTree, FootprintChargesBandwidthTimesMultiplicity) {
  Fixture f;
  f.tree.edge_uses = {{0, 1}, {1, 2}, {2, 1}};
  const nfv::Footprint fp = f.tree.footprint(f.request);
  ASSERT_EQ(fp.bandwidth.size(), 3u);
  EXPECT_DOUBLE_EQ(fp.bandwidth[1].second, 200.0);  // 2 x 100 Mbps
  ASSERT_EQ(fp.compute.size(), 1u);
  EXPECT_EQ(fp.compute[0].first, 1u);
  EXPECT_DOUBLE_EQ(fp.compute[0].second, f.request.compute_demand_mhz());
}

TEST(PseudoTree, FootprintChargesEveryServer) {
  Fixture f;
  f.tree.servers = {1, 2};
  const nfv::Footprint fp = f.tree.footprint(f.request);
  EXPECT_EQ(fp.compute.size(), 2u);
}

TEST(PseudoTree, SourceMismatchRejected) {
  Fixture f;
  f.tree.source = 1;
  EXPECT_FALSE(validate_pseudo_tree(f.g, f.request, f.tree, nullptr));
}

TEST(PseudoTree, NegativeCostRejected) {
  Fixture f;
  f.tree.cost = -1.0;
  std::string error;
  EXPECT_FALSE(validate_pseudo_tree(f.g, f.request, f.tree, &error));
  EXPECT_EQ(error, "negative cost");
}

TEST(PseudoTree, NoServersRejected) {
  Fixture f;
  f.tree.servers.clear();
  EXPECT_FALSE(validate_pseudo_tree(f.g, f.request, f.tree, nullptr));
}

TEST(PseudoTree, DuplicateServersRejected) {
  Fixture f;
  f.tree.servers = {1, 1};
  EXPECT_FALSE(validate_pseudo_tree(f.g, f.request, f.tree, nullptr));
}

TEST(PseudoTree, UnknownEdgeRejected) {
  Fixture f;
  f.tree.edge_uses.push_back({9, 1});
  EXPECT_FALSE(validate_pseudo_tree(f.g, f.request, f.tree, nullptr));
}

TEST(PseudoTree, ZeroMultiplicityRejected) {
  Fixture f;
  f.tree.edge_uses[0].second = 0;
  EXPECT_FALSE(validate_pseudo_tree(f.g, f.request, f.tree, nullptr));
}

TEST(PseudoTree, DuplicateEdgeEntryRejected) {
  Fixture f;
  f.tree.edge_uses.push_back({0, 1});
  EXPECT_FALSE(validate_pseudo_tree(f.g, f.request, f.tree, nullptr));
}

TEST(PseudoTree, MissingRouteRejected) {
  Fixture f;
  f.tree.routes.clear();
  std::string error;
  EXPECT_FALSE(validate_pseudo_tree(f.g, f.request, f.tree, &error));
  EXPECT_EQ(error, "some destination has no route");
}

TEST(PseudoTree, RouteForNonDestinationRejected) {
  Fixture f;
  f.tree.routes[0].destination = 2;
  f.tree.routes[0].walk = {0, 1, 2};
  EXPECT_FALSE(validate_pseudo_tree(f.g, f.request, f.tree, nullptr));
}

TEST(PseudoTree, WalkMustStartAtSource) {
  Fixture f;
  f.tree.routes[0].walk = {1, 2, 3};
  f.tree.routes[0].server_index = 0;
  EXPECT_FALSE(validate_pseudo_tree(f.g, f.request, f.tree, nullptr));
}

TEST(PseudoTree, WalkMustEndAtDestination) {
  Fixture f;
  f.tree.routes[0].walk = {0, 1, 2};
  EXPECT_FALSE(validate_pseudo_tree(f.g, f.request, f.tree, nullptr));
}

TEST(PseudoTree, ServerIndexMustPointAtServer) {
  Fixture f;
  f.tree.routes[0].server_index = 2;  // walk[2] == 2, not the server
  EXPECT_FALSE(validate_pseudo_tree(f.g, f.request, f.tree, nullptr));
}

TEST(PseudoTree, ServerIndexOutOfRangeRejected) {
  Fixture f;
  f.tree.routes[0].server_index = 9;
  EXPECT_FALSE(validate_pseudo_tree(f.g, f.request, f.tree, nullptr));
}

TEST(PseudoTree, RouteServerMustBeListed) {
  Fixture f;
  f.tree.servers = {2};
  // Route still claims server 1.
  EXPECT_FALSE(validate_pseudo_tree(f.g, f.request, f.tree, nullptr));
}

TEST(PseudoTree, WalkThroughNonAdjacentVerticesRejected) {
  Fixture f;
  f.tree.routes[0].walk = {0, 2, 3};  // 0-2 is not a link
  f.tree.routes[0].server_index = 0;
  f.tree.routes[0].server = 0;
  f.tree.servers = {0};
  EXPECT_FALSE(validate_pseudo_tree(f.g, f.request, f.tree, nullptr));
}

TEST(PseudoTree, WalkOverEdgeMissingFromUsesRejected) {
  Fixture f;
  f.tree.edge_uses = {{0, 1}, {1, 1}};  // e2 missing but walked
  EXPECT_FALSE(validate_pseudo_tree(f.g, f.request, f.tree, nullptr));
}

TEST(PseudoTree, BackhaulWalkWithRevisitsAccepted) {
  // Destination 0 side: walk 0 -> 1 (server) -> 0 is impossible (source is
  // 0); instead test a detour walk 0,1,2,1,... on a request to 3 plus 0-side
  // branch. Build: source 0, dests {2}, server at 3, walk 0,1,2,3,2.
  graph::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);

  nfv::Request request;
  request.id = 2;
  request.source = 0;
  request.destinations = {2};
  request.bandwidth_mbps = 50.0;
  request.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});

  PseudoMulticastTree tree;
  tree.source = 0;
  tree.servers = {3};
  tree.edge_uses = {{0, 1}, {1, 1}, {2, 2}};  // 2-3 walked twice
  DestinationRoute route;
  route.destination = 2;
  route.server = 3;
  route.walk = {0, 1, 2, 3, 2};
  route.server_index = 3;
  tree.routes = {route};
  tree.cost = 4.0;

  std::string error;
  EXPECT_TRUE(validate_pseudo_tree(g, request, tree, &error)) << error;
}

TEST(MakeOneServerSptTree, BuildsValidTree) {
  graph::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);

  nfv::Request r;
  r.id = 1;
  r.source = 0;
  r.destinations = {3};
  r.bandwidth_mbps = 100.0;
  r.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});

  const graph::ShortestPaths from_source = graph::dijkstra(g, 0);
  const graph::ShortestPaths from_server = graph::dijkstra(g, 2);
  VertexMarks marks;
  PseudoMulticastTree tree =
      make_one_server_spt_tree(r, 2, from_source, from_server, 3.0, marks);
  EXPECT_DOUBLE_EQ(tree.cost, 3.0);
  EXPECT_EQ(one_server_spt_traversals(r, 2, from_source, from_server, marks),
            tree.total_link_traversals());
  std::string error;
  EXPECT_TRUE(validate_pseudo_tree(g, r, tree, &error)) << error;
}

TEST(MakeOneServerSptTree, ThrowsOnUnreachableServer) {
  graph::Graph g(3);
  g.add_edge(0, 1, 1.0);  // vertex 2 isolated

  nfv::Request r;
  r.id = 1;
  r.source = 0;
  r.destinations = {1};
  r.bandwidth_mbps = 50.0;
  r.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});

  const graph::ShortestPaths from_source = graph::dijkstra(g, 0);
  const graph::ShortestPaths from_server = graph::dijkstra(g, 2);
  VertexMarks marks;
  EXPECT_THROW(make_one_server_spt_tree(r, 2, from_source, from_server, 0.0, marks),
               std::invalid_argument);
}

TEST(MakeOneServerSptTree, ThrowsOnUnreachableDestination) {
  graph::Graph g(3);
  g.add_edge(0, 1, 1.0);  // vertex 2 isolated

  nfv::Request r;
  r.id = 1;
  r.source = 0;
  r.destinations = {2};
  r.bandwidth_mbps = 50.0;
  r.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});

  const graph::ShortestPaths from_source = graph::dijkstra(g, 0);
  const graph::ShortestPaths from_server = graph::dijkstra(g, 1);
  VertexMarks marks;
  EXPECT_THROW(make_one_server_spt_tree(r, 1, from_source, from_server, 0.0, marks),
               std::invalid_argument);
}

// The price and the assembly against the node-based assembly they replaced
// (reference::make_one_server_spt_tree), on random multigraphs with
// parallel edges, self-loops, unit or {1..4} weights and random masks. The
// requests cover a server that is also a destination and a source that is
// the server; one VertexMarks serves every call, as in the SP scans.
TEST(MakeOneServerSptTree, MatchesNodeBasedAssemblyOnRandomMultigraphs) {
  util::Rng rng(311);
  graph::SpEngine engine;
  VertexMarks marks;
  std::size_t compared = 0;
  std::size_t server_is_destination = 0;
  std::size_t source_is_server = 0;
  std::size_t shared_links = 0;  // multiplicity 2: on both parts of the tree
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t n = 2 + rng.next_below(30);
    graph::Graph g(n);
    const bool unit = trial % 2 == 0;
    const std::size_t m = n + rng.next_below(3 * n);
    for (std::size_t i = 0; i < m; ++i) {
      const auto u = static_cast<graph::VertexId>(rng.next_below(n));
      // A few self-loops; parallel edges come from repeated pairs.
      const auto v = rng.bernoulli(0.05) ? u
                                         : static_cast<graph::VertexId>(rng.next_below(n));
      g.add_edge(u, v, unit ? 1.0 : static_cast<double>(rng.uniform_int(1, 4)));
    }
    std::vector<std::uint8_t> mask(g.num_edges());
    for (std::uint8_t& allowed : mask) allowed = rng.bernoulli(0.8) ? 1 : 0;

    nfv::Request request;
    request.source = static_cast<graph::VertexId>(rng.next_below(n));
    const auto server = trial % 5 == 0
                            ? request.source
                            : static_cast<graph::VertexId>(rng.next_below(n));
    std::vector<graph::VertexId> others;
    for (graph::VertexId v = 0; v < n; ++v) {
      if (v != request.source && v != server) others.push_back(v);
    }
    rng.shuffle(std::span<graph::VertexId>(others));
    const std::size_t k = 1 + rng.next_below(std::max<std::size_t>(1, others.size()));
    request.destinations.assign(others.begin(),
                                others.begin() + static_cast<std::ptrdiff_t>(
                                                     std::min(k, others.size())));
    if (server != request.source && (request.destinations.empty() || trial % 3 == 0)) {
      request.destinations.insert(
          request.destinations.begin() +
              static_cast<std::ptrdiff_t>(rng.next_below(request.destinations.size() + 1)),
          server);
    }
    if (request.destinations.empty()) continue;

    const graph::ShortestPaths from_source =
        reference::shortest_paths_masked(engine, g, request.source, mask);
    const graph::ShortestPaths from_server =
        reference::shortest_paths_masked(engine, g, server, mask);
    bool reachable = from_source.reachable(server);
    for (graph::VertexId d : request.destinations) {
      reachable = reachable && from_server.reachable(d);
    }
    if (!reachable) {
      EXPECT_THROW(make_one_server_spt_tree(request, server, from_source, from_server,
                                            0.0, marks),
                   std::invalid_argument);
      continue;
    }

    const PseudoMulticastTree expected = reference::make_one_server_spt_tree(
        request, server, from_source, from_server, nullptr, 0.0);
    const std::size_t price =
        one_server_spt_traversals(request, server, from_source, from_server, marks);
    ASSERT_EQ(price, expected.total_link_traversals()) << "trial " << trial;
    const PseudoMulticastTree tree = make_one_server_spt_tree(
        request, server, from_source, from_server, static_cast<double>(price), marks);
    EXPECT_EQ(tree.source, request.source);
    EXPECT_EQ(tree.servers, expected.servers) << "trial " << trial;
    EXPECT_EQ(tree.edge_uses, expected.edge_uses) << "trial " << trial;
    EXPECT_EQ(tree.cost, static_cast<double>(expected.total_link_traversals()));
    ASSERT_EQ(tree.routes.size(), expected.routes.size()) << "trial " << trial;
    for (std::size_t r = 0; r < tree.routes.size(); ++r) {
      EXPECT_EQ(tree.routes[r].destination, expected.routes[r].destination);
      EXPECT_EQ(tree.routes[r].server, expected.routes[r].server);
      EXPECT_EQ(tree.routes[r].walk, expected.routes[r].walk) << "trial " << trial;
      EXPECT_EQ(tree.routes[r].server_index, expected.routes[r].server_index);
    }

    std::set<graph::VertexId> touched{tree.source};
    touched.insert(tree.servers.begin(), tree.servers.end());
    for (const auto& [edge, mult] : tree.edge_uses) {
      touched.insert(g.edge(edge).u);
      touched.insert(g.edge(edge).v);
      shared_links += mult == 2;
    }
    EXPECT_EQ(tree.touched_switches(g),
              std::vector<graph::VertexId>(touched.begin(), touched.end()))
        << "trial " << trial;

    ++compared;
    for (graph::VertexId d : request.destinations) server_is_destination += d == server;
    source_is_server += server == request.source;
  }
  // The cases the comparison is meant to cover all occurred.
  EXPECT_GT(compared, 200u);
  EXPECT_GT(server_is_destination, 20u);
  EXPECT_GT(source_is_server, 20u);
  EXPECT_GT(shared_links, 20u);
}

}  // namespace
}  // namespace nfvm::core
