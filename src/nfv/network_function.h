// The virtualized network functions of the paper's evaluation (Section
// VI-A): Firewall, Proxy, NAT, IDS, Load Balancer, each with a computing
// demand profile.
//
// The paper adopts demands "from [7], [17]" without printing the constants;
// we use a profile table in MHz per 100 Mbps of processed traffic whose
// relative ordering follows ClickOS-era measurements (NAT cheapest, IDS most
// expensive). See DESIGN.md, "Substitutions".
#pragma once

#include <array>
#include <cstdint>
#include <string_view>


namespace nfvm::nfv {

enum class NetworkFunction : std::uint8_t {
  kNat = 0,
  kFirewall = 1,
  kLoadBalancer = 2,
  kProxy = 3,
  kIds = 4,
};

inline constexpr std::size_t kNumNetworkFunctions = 5;

inline constexpr std::array<NetworkFunction, kNumNetworkFunctions> kAllNetworkFunctions = {
    NetworkFunction::kNat,   NetworkFunction::kFirewall,
    NetworkFunction::kLoadBalancer, NetworkFunction::kProxy,
    NetworkFunction::kIds,
};

/// Human-readable name ("NAT", "Firewall", ...).
std::string_view to_string(NetworkFunction nf);

/// Computing demand of one NF instance, in MHz per 100 Mbps of traffic.
double compute_demand_per_100mbps(NetworkFunction nf);

/// Per-packet processing latency added by one NF instance, in ms. Used by
/// the delay-constrained extension (core/delay.h).
double processing_delay_ms(NetworkFunction nf);

}  // namespace nfvm::nfv
