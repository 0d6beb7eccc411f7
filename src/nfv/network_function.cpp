#include "nfv/network_function.h"

#include <stdexcept>

namespace nfvm::nfv {
namespace {

struct Profile {
  std::string_view name;
  double mhz_per_100mbps;
  double delay_ms;
};

constexpr std::array<Profile, kNumNetworkFunctions> kProfiles = {{
    {"NAT", 20.0, 0.05},
    {"Firewall", 40.0, 0.10},
    {"LoadBalancer", 30.0, 0.08},
    {"Proxy", 60.0, 0.30},
    {"IDS", 80.0, 0.50},
}};

const Profile& profile(NetworkFunction nf) {
  const auto idx = static_cast<std::size_t>(nf);
  if (idx >= kProfiles.size()) {
    throw std::invalid_argument("network_function: invalid enum value");
  }
  return kProfiles[idx];
}

}  // namespace

std::string_view to_string(NetworkFunction nf) { return profile(nf).name; }

double compute_demand_per_100mbps(NetworkFunction nf) {
  return profile(nf).mhz_per_100mbps;
}

double processing_delay_ms(NetworkFunction nf) { return profile(nf).delay_ms; }

}  // namespace nfvm::nfv
