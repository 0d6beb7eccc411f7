#include "nfv/network_function.h"

#include <gtest/gtest.h>

#include <set>

namespace nfvm::nfv {
namespace {

TEST(NetworkFunction, NamesAreDistinct) {
  std::set<std::string_view> names;
  for (NetworkFunction nf : kAllNetworkFunctions) names.insert(to_string(nf));
  EXPECT_EQ(names.size(), kNumNetworkFunctions);
}

TEST(NetworkFunction, KnownNames) {
  EXPECT_EQ(to_string(NetworkFunction::kNat), "NAT");
  EXPECT_EQ(to_string(NetworkFunction::kFirewall), "Firewall");
  EXPECT_EQ(to_string(NetworkFunction::kIds), "IDS");
  EXPECT_EQ(to_string(NetworkFunction::kProxy), "Proxy");
  EXPECT_EQ(to_string(NetworkFunction::kLoadBalancer), "LoadBalancer");
}

TEST(NetworkFunction, DemandsPositive) {
  for (NetworkFunction nf : kAllNetworkFunctions) {
    EXPECT_GT(compute_demand_per_100mbps(nf), 0.0);
  }
}

TEST(NetworkFunction, RelativeOrderingFollowsMeasurements) {
  // NAT cheapest, IDS most expensive (ClickOS-era orderings).
  const double nat = compute_demand_per_100mbps(NetworkFunction::kNat);
  const double ids = compute_demand_per_100mbps(NetworkFunction::kIds);
  for (NetworkFunction nf : kAllNetworkFunctions) {
    const double d = compute_demand_per_100mbps(nf);
    EXPECT_GE(d, nat);
    EXPECT_LE(d, ids);
  }
}

TEST(NetworkFunction, InvalidEnumThrows) {
  EXPECT_THROW(to_string(static_cast<NetworkFunction>(99)), std::invalid_argument);
  EXPECT_THROW(compute_demand_per_100mbps(static_cast<NetworkFunction>(99)),
               std::invalid_argument);
}

}  // namespace
}  // namespace nfvm::nfv
