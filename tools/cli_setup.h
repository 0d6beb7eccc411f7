// Setup shared by the command-line tools (nfvm-sim, nfvm-serve,
// nfvm-serve-client): the accepted --topology and --algorithm names and the
// builders behind them. nfvm-serve-client writes traces whose vertex ids are
// valid only on the network nfvm-serve builds from the same flags, so all
// three tools build it through this one copy.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "core/online.h"
#include "topology/topology.h"
#include "util/rng.h"

namespace nfvm::cli {

/// Accepted --topology values, '|'-separated as usage text prints them.
inline constexpr const char* kTopologies = "waxman|transit-stub|geant|as1755|as4755";
/// Accepted single --algorithm values (nfvm-sim also takes "all").
inline constexpr const char* kAlgorithms = "online_cp|online_sp|online_sp_static";

/// True iff `value` is one of the '|'-separated names in `accepted`.
bool one_of(std::string_view accepted, std::string_view value);

/// The topology for `--topology name --nodes nodes`, drawn from `rng` (the
/// tools seed it with --seed and then draw link delays from it when
/// --max-delay is set). `name` must be in kTopologies.
topo::Topology build_topology(const std::string& name, std::size_t nodes,
                              util::Rng& rng);

/// A fresh instance of the named algorithm; `name` must be in kAlgorithms.
std::unique_ptr<core::OnlineAlgorithm> build_algorithm(const std::string& name,
                                                       const topo::Topology& topo);

}  // namespace nfvm::cli
