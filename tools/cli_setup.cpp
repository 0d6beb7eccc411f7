#include "cli_setup.h"

#include "core/online_cp.h"
#include "core/online_sp.h"
#include "core/online_sp_static.h"
#include "topology/geant.h"
#include "topology/rocketfuel.h"
#include "topology/transit_stub.h"
#include "topology/waxman.h"

namespace nfvm::cli {

bool one_of(std::string_view accepted, std::string_view value) {
  while (true) {
    const std::size_t bar = accepted.find('|');
    if (accepted.substr(0, bar) == value) return true;
    if (bar == std::string_view::npos) return false;
    accepted.remove_prefix(bar + 1);
  }
}

topo::Topology build_topology(const std::string& name, std::size_t nodes,
                              util::Rng& rng) {
  if (name == "waxman") {
    topo::WaxmanOptions wo;
    wo.target_mean_degree = 4.0;
    return topo::make_waxman(nodes, rng, wo);
  }
  if (name == "transit-stub") return topo::make_transit_stub(nodes, rng);
  if (name == "geant") return topo::make_geant(rng);
  if (name == "as1755") return topo::make_as1755(rng);
  return topo::make_as4755(rng);  // validated at parse time
}

std::unique_ptr<core::OnlineAlgorithm> build_algorithm(const std::string& name,
                                                       const topo::Topology& topo) {
  if (name == "online_cp") return std::make_unique<core::OnlineCp>(topo);
  if (name == "online_sp") return std::make_unique<core::OnlineSp>(topo);
  return std::make_unique<core::OnlineSpStatic>(topo);  // validated at parse time
}

}  // namespace nfvm::cli
