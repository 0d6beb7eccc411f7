// serve/protocol.h: command parsing (valid, malformed, invalid), the
// structured error replies with line/offset provenance, reply builder
// shapes, the arrive/depart trace-line round trip, and seeded mutations of
// a generated trace.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "nfv/network_function.h"
#include "obs/json.h"
#include "serve/protocol.h"
#include "serve/trace_gen.h"
#include "topology/geant.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::serve {
namespace {

topo::Topology make_topo() {
  util::Rng rng(17);
  return topo::make_waxman(30, rng);
}

nfv::Request make_request() {
  nfv::Request request;
  request.id = 42;
  request.source = 3;
  request.destinations = {7, 11, 19};
  request.bandwidth_mbps = 120.5;
  request.chain = nfv::ServiceChain(
      {nfv::NetworkFunction::kNat, nfv::NetworkFunction::kFirewall});
  request.max_delay_ms = 0.0;
  return request;
}

std::optional<Command> parse(const topo::Topology& topo, std::string_view line,
                             ParseFailure& failure,
                             const LinePosition& position = {0, 1}) {
  return parse_command(line, position, topo.graph, failure);
}

TEST(ServeProtocol, ArriveLineRoundTrips) {
  const topo::Topology topo = make_topo();
  const nfv::Request request = make_request();
  ParseFailure failure;
  const auto command = parse(topo, arrive_line(request), failure);
  ASSERT_TRUE(command.has_value()) << failure.reply;
  EXPECT_EQ(command->kind, CommandKind::kArrive);
  EXPECT_EQ(command->request.id, request.id);
  EXPECT_EQ(command->request.source, request.source);
  EXPECT_EQ(command->request.destinations, request.destinations);
  EXPECT_EQ(command->request.bandwidth_mbps, request.bandwidth_mbps);
  EXPECT_EQ(command->request.chain.functions(), request.chain.functions());
  EXPECT_EQ(command->request.max_delay_ms, request.max_delay_ms);
}

TEST(ServeProtocol, DepartLineRoundTrips) {
  const topo::Topology topo = make_topo();
  ParseFailure failure;
  const auto command = parse(topo, depart_line(42), failure);
  ASSERT_TRUE(command.has_value()) << failure.reply;
  EXPECT_EQ(command->kind, CommandKind::kDepart);
  EXPECT_EQ(command->request.id, 42u);
}

TEST(ServeProtocol, ControlCommandsParse) {
  const topo::Topology topo = make_topo();
  ParseFailure failure;
  EXPECT_EQ(parse(topo, R"({"cmd":"snapshot"})", failure)->kind,
            CommandKind::kSnapshot);
  EXPECT_EQ(parse(topo, R"({"cmd":"stats"})", failure)->kind,
            CommandKind::kStats);
  EXPECT_EQ(parse(topo, R"({"cmd":"drain"})", failure)->kind,
            CommandKind::kDrain);
}

TEST(ServeProtocol, MalformedJsonYieldsParseErrorWithPosition) {
  const topo::Topology topo = make_topo();
  ParseFailure failure;
  const LinePosition position{1234, 57};
  EXPECT_FALSE(parse(topo, "}garbage{{", failure, position).has_value());
  EXPECT_TRUE(failure.malformed_json);
  EXPECT_NE(failure.reply.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(failure.reply.find("\"error\":\"parse\""), std::string::npos);
  EXPECT_NE(failure.reply.find("\"line\":57"), std::string::npos);
  EXPECT_NE(failure.reply.find("\"offset\":1234"), std::string::npos);

  // A line nested past the parser's depth cap is a parse error too, not a
  // stack overflow that takes the daemon down.
  ParseFailure deep;
  EXPECT_FALSE(parse(topo, std::string(20000, '['), deep).has_value());
  EXPECT_TRUE(deep.malformed_json);
  EXPECT_NE(deep.reply.find("\"error\":\"parse\""), std::string::npos);
}

TEST(ServeProtocol, UnknownCommandIsInvalidNotParse) {
  const topo::Topology topo = make_topo();
  ParseFailure failure;
  EXPECT_FALSE(parse(topo, R"({"cmd":"explode"})", failure).has_value());
  EXPECT_FALSE(failure.malformed_json);
  EXPECT_NE(failure.reply.find("\"error\":\"invalid\""), std::string::npos);
}

TEST(ServeProtocol, SemanticValidationRunsAtParseTime) {
  const topo::Topology topo = make_topo();
  ParseFailure failure;
  // Vertex out of range.
  EXPECT_FALSE(parse(topo,
                     R"({"cmd":"arrive","id":1,"source":999,"destinations":[2],)"
                     R"("bandwidth_mbps":10,"chain":["NAT"]})",
                     failure)
                   .has_value());
  EXPECT_FALSE(failure.malformed_json);
  // Non-positive bandwidth.
  EXPECT_FALSE(parse(topo,
                     R"({"cmd":"arrive","id":1,"source":1,"destinations":[2],)"
                     R"("bandwidth_mbps":0,"chain":["NAT"]})",
                     failure)
                   .has_value());
  // Unknown network function.
  EXPECT_FALSE(parse(topo,
                     R"({"cmd":"arrive","id":1,"source":1,"destinations":[2],)"
                     R"("bandwidth_mbps":10,"chain":["Teleporter"]})",
                     failure)
                   .has_value());
  // Destination equal to source.
  EXPECT_FALSE(parse(topo,
                     R"({"cmd":"arrive","id":1,"source":1,"destinations":[1],)"
                     R"("bandwidth_mbps":10,"chain":["NAT"]})",
                     failure)
                   .has_value());
  // Vertex ids beyond the 32-bit id range: 2^32 + 1 and 2^32 + 3 would
  // truncate onto the valid vertices 1 and 3.
  EXPECT_FALSE(parse(topo,
                     R"({"cmd":"arrive","id":1,"source":4294967297,"destinations":[3],)"
                     R"("bandwidth_mbps":10,"chain":["NAT"]})",
                     failure)
                   .has_value());
  EXPECT_FALSE(failure.malformed_json);
  EXPECT_FALSE(parse(topo,
                     R"({"cmd":"arrive","id":1,"source":1,"destinations":[4294967299],)"
                     R"("bandwidth_mbps":10,"chain":["NAT"]})",
                     failure)
                   .has_value());
  EXPECT_FALSE(failure.malformed_json);
  // An id no 64-bit integer can hold.
  EXPECT_FALSE(parse(topo,
                     R"({"cmd":"arrive","id":1e30,"source":1,"destinations":[3],)"
                     R"("bandwidth_mbps":10,"chain":["NAT"]})",
                     failure)
                   .has_value());
  EXPECT_FALSE(failure.malformed_json);
  // The same request with in-range ids parses.
  EXPECT_TRUE(parse(topo,
                    R"({"cmd":"arrive","id":1,"source":1,"destinations":[3],)"
                    R"("bandwidth_mbps":10,"chain":["NAT"]})",
                    failure)
                  .has_value());
}

TEST(ServeProtocol, ReplyBuildersCarryTheContractFields) {
  core::AdmissionDecision admitted;
  admitted.admitted = true;
  admitted.tree.cost = 12.5;
  const std::string a = arrive_reply(7, admitted, 3);
  EXPECT_NE(a.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(a.find("\"admitted\":true"), std::string::npos);
  EXPECT_NE(a.find("\"active\":3"), std::string::npos);

  core::AdmissionDecision rejected;
  rejected.admitted = false;
  rejected.reject_reason = "no feasible server";
  rejected.reject_cause = core::RejectCause::kCompute;
  const std::string r = arrive_reply(8, rejected, 3);
  EXPECT_NE(r.find("\"admitted\":false"), std::string::npos);
  EXPECT_NE(r.find("\"reject_cause\":\"compute\""), std::string::npos);

  const std::string s = shed_reply(9);
  EXPECT_NE(s.find("\"reject_cause\":\"overload\""), std::string::npos);
  EXPECT_NE(s.find("\"shed\":true"), std::string::npos);

  const std::string d = depart_reply(7, /*released=*/true, 2);
  EXPECT_NE(d.find("\"released\":true"), std::string::npos);

  const std::string e = error_reply("invalid", "unknown id", {99, 4});
  EXPECT_NE(e.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(e.find("\"line\":4"), std::string::npos);
  EXPECT_NE(e.find("\"offset\":99"), std::string::npos);
}

/// `line` with one seeded edit: a byte flip, a token insert, a truncation, a
/// duplicated slice, or a splice with a line of `pool`.
std::string mutate(std::string line, const std::vector<std::string>& pool,
                   util::Rng& rng) {
  static const std::vector<std::string> kTokens = {
      "{", "}", "[", "]", ",", ":", "\"", "\\", "null", "true", "false", "-",
      "-1", "0", "1e309", "-0.0", "18446744073709551616", "4294967296", "NaN",
      "\"cmd\"", "\"arrive\"", "\"depart\"", "\"snapshot\"", "\"stats\"",
      "\"drain\"", "\"id\":", "\"destinations\":[]", "\"chain\":[\"NAT\"]",
      "\"\\u0000\"", "\"\\ud800\"", "[[[[[[[[", std::string(1, '\0'), "\xff\xfe"};
  const auto at = [&](std::size_t extra) {
    return static_cast<std::size_t>(rng.next_below(line.size() + extra));
  };
  switch (rng.next_below(5)) {
    case 0:  // byte flip
      if (!line.empty()) {
        line[at(0)] ^= static_cast<char>(1 + rng.next_below(255));
      }
      break;
    case 1:  // token insert
      line.insert(at(1), kTokens[rng.next_below(kTokens.size())]);
      break;
    case 2:  // truncation
      line.resize(at(1));
      break;
    case 3: {  // duplicated slice
      const std::size_t from = at(1);
      const std::size_t length = rng.next_below(line.size() - from + 1);
      line.insert(at(1), line.substr(from, length));
      break;
    }
    default: {  // splice: a prefix of this line and a suffix of another
      const std::string& other = pool[rng.next_below(pool.size())];
      line = line.substr(0, at(1)) +
             other.substr(static_cast<std::size_t>(rng.next_below(other.size() + 1)));
      break;
    }
  }
  return line;
}

// Every mutated line of a generated GEANT trace (arrive, depart, snapshot
// and stats lines, plus a drain) either parses into a command or is refused
// with a failure reply that is a JSON object with "ok": false; the parser
// never throws. Each mutation applies one to three edits.
TEST(ServeProtocol, MutatedLinesYieldCommandOrStructuredFailure) {
  util::Rng topo_rng(2);
  const topo::Topology topo = topo::make_geant(topo_rng);
  TraceGenOptions options;
  options.num_requests = 200;
  options.snapshot_every = 40;
  options.final_stats = true;
  std::ostringstream trace;
  util::Rng trace_rng(21);
  write_serve_trace(trace, topo, trace_rng, options);
  std::vector<std::string> lines;
  std::istringstream in(trace.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  lines.push_back(R"({"cmd":"drain"})");

  std::size_t kinds[5] = {};
  for (const std::string& line : lines) {
    ParseFailure failure;
    const auto command = parse(topo, line, failure);
    ASSERT_TRUE(command.has_value()) << line << " -> " << failure.reply;
    ++kinds[static_cast<std::size_t>(command->kind)];
  }
  for (const std::size_t count : kinds) ASSERT_GT(count, 0u);

  util::Rng rng(9001);
  std::size_t parsed = 0;
  std::size_t refused = 0;
  for (std::uint64_t i = 0; i < 50'000; ++i) {
    std::string line = lines[rng.next_below(lines.size())];
    for (std::uint64_t edits = 1 + rng.next_below(3); edits > 0; --edits) {
      line = mutate(std::move(line), lines, rng);
    }
    ParseFailure failure;
    std::optional<Command> command;
    try {
      command = parse(topo, line, failure, {i * 100, i + 1});
    } catch (const std::exception& e) {
      FAIL() << "parse_command threw on " << line << ": " << e.what();
    }
    if (command.has_value()) {
      ++parsed;
      continue;
    }
    ++refused;
    obs::JsonValue reply;
    try {
      reply = obs::parse_json(failure.reply);
    } catch (const std::exception& e) {
      FAIL() << "failure reply is not JSON for " << line << ": " << failure.reply;
    }
    ASSERT_TRUE(reply.is_object()) << failure.reply;
    ASSERT_TRUE(reply.has("ok") && reply.at("ok").is_bool() && !reply.at("ok").boolean)
        << failure.reply;
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace nfvm::serve
