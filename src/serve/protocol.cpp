#include "serve/protocol.h"

#include <exception>
#include <limits>

#include "obs/event_log.h"
#include "obs/json.h"

namespace nfvm::serve {

namespace {

std::optional<nfv::NetworkFunction> nf_from_string(std::string_view name) {
  for (nfv::NetworkFunction nf : nfv::kAllNetworkFunctions) {
    if (nfv::to_string(nf) == name) return nf;
  }
  return std::nullopt;
}

/// A vertex id: a value beyond graph::VertexId's range is rejected, not
/// truncated onto some other vertex.
graph::VertexId as_vertex(const obs::JsonValue& v, const char* what) {
  return static_cast<graph::VertexId>(
      obs::json_uint(v, what, std::numeric_limits<graph::VertexId>::max()));
}

Command parse_arrive(const obs::JsonValue& doc) {
  Command cmd;
  cmd.kind = CommandKind::kArrive;
  nfv::Request& r = cmd.request;
  r.id = obs::json_uint(doc.at("id"), "id");
  r.source = as_vertex(doc.at("source"), "source");
  const obs::JsonValue& dests = doc.at("destinations");
  if (!dests.is_array() || dests.array.empty()) {
    throw std::runtime_error("destinations must be a non-empty array");
  }
  r.destinations.reserve(dests.array.size());
  for (const obs::JsonValue& d : dests.array) {
    r.destinations.push_back(as_vertex(d, "destination"));
  }
  const obs::JsonValue& bw = doc.at("bandwidth_mbps");
  if (!bw.is_number()) throw std::runtime_error("bandwidth_mbps must be a number");
  r.bandwidth_mbps = bw.number;
  const obs::JsonValue& chain = doc.at("chain");
  if (!chain.is_array() || chain.array.empty()) {
    throw std::runtime_error("chain must be a non-empty array of NF names");
  }
  std::vector<nfv::NetworkFunction> functions;
  functions.reserve(chain.array.size());
  for (const obs::JsonValue& nf : chain.array) {
    if (!nf.is_string()) throw std::runtime_error("chain entries must be strings");
    const auto parsed = nf_from_string(nf.string);
    if (!parsed.has_value()) {
      throw std::runtime_error("unknown network function \"" + nf.string + "\"");
    }
    functions.push_back(*parsed);
  }
  r.chain = nfv::ServiceChain(std::move(functions));
  if (doc.has("max_delay_ms")) {
    const obs::JsonValue& delay = doc.at("max_delay_ms");
    if (!delay.is_number() || delay.number < 0) {
      throw std::runtime_error("max_delay_ms must be a non-negative number");
    }
    r.max_delay_ms = delay.number;
  }
  return cmd;
}

}  // namespace

std::optional<Command> parse_command(std::string_view line,
                                     const LinePosition& position,
                                     const graph::Graph& graph,
                                     ParseFailure& failure) {
  obs::JsonValue doc;
  try {
    doc = obs::parse_json(line, position.offset);
  } catch (const std::exception& e) {
    failure.reply = serve::error_reply("parse", e.what(), position);
    failure.malformed_json = true;
    return std::nullopt;
  }
  try {
    if (!doc.is_object()) throw std::runtime_error("command is not a JSON object");
    const obs::JsonValue& cmd = doc.at("cmd");
    if (!cmd.is_string()) throw std::runtime_error("cmd must be a string");
    if (cmd.string == "arrive") {
      Command command = parse_arrive(doc);
      // Full graph-level validation up front: process() must never throw on
      // daemon input, however hostile.
      nfv::validate_request(command.request, graph);
      return command;
    }
    if (cmd.string == "depart") {
      Command command;
      command.kind = CommandKind::kDepart;
      command.request.id = obs::json_uint(doc.at("id"), "id");
      return command;
    }
    if (cmd.string == "snapshot") return Command{CommandKind::kSnapshot, {}};
    if (cmd.string == "stats") return Command{CommandKind::kStats, {}};
    if (cmd.string == "drain") return Command{CommandKind::kDrain, {}};
    throw std::runtime_error("unknown cmd \"" + cmd.string + "\"");
  } catch (const std::exception& e) {
    failure.reply = serve::error_reply("invalid", e.what(), position);
    failure.malformed_json = false;
    return std::nullopt;
  }
}

std::string arrive_reply(std::uint64_t id,
                         const core::AdmissionDecision& decision,
                         std::size_t active) {
  obs::JsonLine line;
  line.field("ok", true).field("cmd", "arrive").field("id", id).field(
      "admitted", decision.admitted);
  if (decision.admitted) {
    line.field("cost", decision.tree.cost)
        .field("servers", decision.tree.servers.size());
  } else {
    line.field("reject_cause", core::to_string(decision.reject_cause))
        .field("reject_reason", decision.reject_reason);
  }
  line.field("active", active);
  return line.str();
}

std::string shed_reply(std::uint64_t id) {
  obs::JsonLine line;
  line.field("ok", true)
      .field("cmd", "arrive")
      .field("id", id)
      .field("admitted", false)
      .field("reject_cause", "overload")
      .field("shed", true);
  return line.str();
}

std::string depart_reply(std::uint64_t id, bool released, std::size_t active) {
  obs::JsonLine line;
  line.field("ok", true)
      .field("cmd", "depart")
      .field("id", id)
      .field("released", released)
      .field("active", active);
  return line.str();
}

std::string snapshot_reply(std::uint64_t seq, std::string_view path,
                           std::size_t active) {
  obs::JsonLine line;
  line.field("ok", true)
      .field("cmd", "snapshot")
      .field("seq", seq)
      .field("path", path)
      .field("active", active);
  return line.str();
}

std::string error_reply(std::string_view code, std::string_view detail,
                        const LinePosition& position) {
  obs::JsonLine line;
  line.field("ok", false)
      .field("error", code)
      .field("line", position.number)
      .field("offset", position.offset)
      .field("detail", detail);
  return line.str();
}

std::string arrive_line(const nfv::Request& request) {
  obs::JsonLine line;
  line.field("cmd", "arrive")
      .field("id", static_cast<std::uint64_t>(request.id))
      .field("source", static_cast<std::uint64_t>(request.source));
  std::string dests;
  for (graph::VertexId d : request.destinations) {
    if (!dests.empty()) dests += ',';
    dests += std::to_string(d);
  }
  std::string chain;
  for (nfv::NetworkFunction nf : request.chain.functions()) {
    if (!chain.empty()) chain += ',';
    chain += '"';
    chain += nfv::to_string(nf);
    chain += '"';
  }
  // JsonLine has no array support; splice the two arrays as a raw tail.
  std::string out = "{" + line.body() + ",\"destinations\":[" + dests + "]";
  out += ",\"bandwidth_mbps\":" + obs::json_number(request.bandwidth_mbps);
  out += ",\"chain\":[" + chain + "]";
  if (request.max_delay_ms > 0) {
    out += ",\"max_delay_ms\":" + obs::json_number(request.max_delay_ms);
  }
  out += "}";
  return out;
}

std::string depart_line(std::uint64_t id) {
  obs::JsonLine line;
  line.field("cmd", "depart").field("id", id);
  return line.str();
}

}  // namespace nfvm::serve
