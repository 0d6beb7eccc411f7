#include "nfv/request.h"

#include <algorithm>
#include <stdexcept>

namespace nfvm::nfv {

std::string Request::to_string() const {
  std::string out = "r";
  out += std::to_string(id);
  out += "(s=";
  out += std::to_string(source);
  out += ", D={";
  for (std::size_t i = 0; i < destinations.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(destinations[i]);
  }
  out += "}, b=";
  out += std::to_string(bandwidth_mbps);
  out += "Mbps, SC=";
  out += chain.to_string();
  out += ")";
  return out;
}

void validate_request(const Request& request, const graph::Graph& g) {
  if (!g.has_vertex(request.source)) {
    throw std::invalid_argument("request: source is not a vertex of the SDN");
  }
  if (request.destinations.empty()) {
    throw std::invalid_argument("request: destination set is empty");
  }
  std::vector<graph::VertexId> sorted = request.destinations;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw std::invalid_argument("request: duplicate destination");
  }
  for (graph::VertexId d : request.destinations) {
    if (!g.has_vertex(d)) {
      throw std::invalid_argument("request: destination is not a vertex of the SDN");
    }
    if (d == request.source) {
      throw std::invalid_argument("request: source listed as destination");
    }
  }
  if (!(request.bandwidth_mbps > 0)) {
    throw std::invalid_argument("request: bandwidth must be positive");
  }
  if (request.chain.empty()) {
    throw std::invalid_argument("request: service chain is empty");
  }
}

}  // namespace nfvm::nfv
