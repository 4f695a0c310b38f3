// Every frame decoder rejects every truncation of a valid frame with its
// own error message.
//
// The decoders read through ByteReader after a single length check per
// frame section, so a cut frame must be turned away by that check, never
// by a field read running off the end. Each cut is copied into a buffer of
// exactly its length: under AddressSanitizer an out-of-bounds read left
// behind by a missing or wrong length check is reported, not just
// answered with a wrong message.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "apps/blink/blink.hpp"
#include "apps/flowradar/flowradar.hpp"
#include "apps/flowstats/flowstats.hpp"
#include "apps/hula/probe.hpp"
#include "apps/l3fwd/l3fwd.hpp"
#include "apps/netcache/netcache.hpp"
#include "apps/routescout/routescout.hpp"
#include "apps/silkroad/silkroad.hpp"
#include "core/lldp.hpp"
#include "core/wire.hpp"

namespace p4auth {
namespace {

using core::HdrType;

/// The error message of a decode, or "" when it succeeded.
template <typename T>
std::string message_of(const Result<T>& result) {
  return result.ok() ? std::string() : result.error().message;
}

struct Case {
  std::string name;
  Bytes frame;
  std::function<std::string(ByteView)> decode;
  /// (shortest cut length, expected message) steps in ascending order: a
  /// cut of length c expects the message of the last step at or below c.
  std::vector<std::pair<std::size_t, std::string>> cuts;
  /// The message for the frame plus one byte; "" when the decoder
  /// accepts trailing bytes.
  std::string trailing;
};

Bytes p4auth_frame(HdrType type, std::uint8_t msg_type, core::Payload payload) {
  core::Message m;
  m.header.hdr_type = type;
  m.header.msg_type = msg_type;
  m.header.seq_num = 0x1234;
  m.header.key_version = KeyVersion{1};
  m.header.src = NodeId{1};
  m.header.dst = NodeId{2};
  m.header.digest = 0xA1B2C3D4;
  m.payload = std::move(payload);
  return core::encode(m);
}

/// A P4Auth message case: the header check covers cuts below 14 bytes,
/// the payload check the rest.
Case message_case(std::string name, HdrType type, std::uint8_t msg_type, core::Payload payload,
                  std::string payload_truncated) {
  return {std::move(name),
          p4auth_frame(type, msg_type, std::move(payload)),
          [](ByteView f) { return message_of(core::decode(f)); },
          {{0, "p4auth frame truncated"}, {core::kHeaderSize, std::move(payload_truncated)}},
          "p4auth frame has trailing bytes"};
}

/// A magic-led app or LLDP frame: a cut to 0 bytes loses the magic, any
/// longer cut the fixed body behind it.
template <typename Decode>
Case magic_case(std::string name, Bytes frame, Decode decode, std::string not_magic,
                std::string truncated) {
  return {std::move(name),
          std::move(frame),
          [decode](ByteView f) { return message_of(decode(f)); },
          {{0, std::move(not_magic)}, {1, std::move(truncated)}},
          ""};
}

std::vector<Case> all_decoders() {
  namespace hula = apps::hula;
  std::vector<Case> cases;
  // The P4Auth codec, one valid frame per payload kind. DpData's payload
  // is the rest of the frame, so only an empty inner makes every cut a
  // truncation, and extra bytes are inner bytes, not trailing ones.
  cases.push_back(message_case("register_op", HdrType::RegisterOp, 1,
                               core::RegisterOpPayload{RegisterId{7}, 3, 0x0102030405060708},
                               "registerOp payload truncated"));
  cases.push_back(message_case("eak", HdrType::KeyExchange, 1, core::EakPayload{0x1122},
                               "eak payload truncated"));
  cases.push_back(message_case("adhkd_init", HdrType::KeyExchange, 2,
                               core::AdhkdPayload{0x33, 0x44}, "adhkd payload truncated"));
  cases.push_back(message_case("adhkd_update", HdrType::KeyExchange, 3,
                               core::AdhkdPayload{0x55, 0x66}, "adhkd payload truncated"));
  cases.push_back(message_case("port_key_init", HdrType::KeyExchange, 4,
                               core::PortKeyPayload{PortId{2}, NodeId{9}},
                               "portKey payload truncated"));
  cases.push_back(message_case("port_key_update", HdrType::KeyExchange, 5,
                               core::PortKeyPayload{PortId{3}, NodeId{8}},
                               "portKey payload truncated"));
  cases.push_back(message_case("alert", HdrType::Alert, 2, core::AlertPayload{1, 2, 3, 4},
                               "alert payload truncated"));
  cases.push_back({"dp_data",
                   p4auth_frame(HdrType::DpData, 0, core::DpDataPayload{}),
                   [](ByteView f) { return message_of(core::decode(f)); },
                   {{0, "p4auth frame truncated"}},
                   ""});
  cases.push_back({"decode_header",
                   p4auth_frame(HdrType::RegisterOp, 1, core::RegisterOpPayload{}),
                   [](ByteView f) { return message_of(core::decode_header(f)); },
                   {{0, "p4auth frame truncated"}},
                   ""});
  cases.back().frame.resize(core::kHeaderSize);

  cases.push_back(magic_case("lldp", core::encode_lldp({NodeId{4}, PortId{1}}), core::decode_lldp,
                             "not an LLDP frame", "LLDP frame truncated"));
  cases.push_back(magic_case("lldp_report",
                             core::encode_lldp_report({NodeId{4}, PortId{1}, NodeId{5}, PortId{2}}),
                             core::decode_lldp_report, "not an LLDP report",
                             "LLDP report truncated"));

  hula::Probe probe;
  probe.origin_tor = NodeId{3};
  probe.max_util = 40;
  probe.trace = {{NodeId{3}, PortId{1}, 10}, {NodeId{2}, PortId{2}, 40}};
  cases.push_back({"hula_probe",
                   hula::encode_probe(probe),
                   [](ByteView f) { return message_of(hula::decode_probe(f)); },
                   {{0, "not a HULA probe"}, {1, "probe truncated"}, {5, "probe trace truncated"}},
                   "probe has trailing bytes"});
  cases.push_back(magic_case("hula_data", hula::encode_data({NodeId{3}, 99, 1500}),
                             hula::decode_data, "not a HULA data packet",
                             "data packet truncated"));

  cases.push_back(magic_case("blink", apps::blink::encode_packet({5, 77, true}),
                             apps::blink::decode_packet, "not a blink packet",
                             "blink packet truncated"));
  cases.push_back(magic_case("flowradar", apps::flowradar::encode_packet({0xBEEF}),
                             apps::flowradar::decode_packet, "not a flowradar packet",
                             "flowradar packet truncated"));
  cases.push_back(magic_case("flowstats", apps::flowstats::encode_packet({6, 700}),
                             apps::flowstats::decode_packet, "not a flow packet",
                             "flow packet truncated"));
  cases.push_back(magic_case("l3fwd", apps::l3fwd::encode_ipv4({0x0A000001, 64}),
                             apps::l3fwd::decode_ipv4, "not an ipv4 packet",
                             "ipv4 packet truncated"));
  cases.push_back(magic_case("netcache_query", apps::netcache::encode_query({42}),
                             apps::netcache::decode_query, "not a query", "query truncated"));
  cases.push_back(magic_case("netcache_response",
                             apps::netcache::encode_response({42, 0xABCDEF, true}),
                             apps::netcache::decode_response, "not a response",
                             "response truncated"));
  cases.push_back(magic_case("routescout_data", apps::routescout::encode_data({123, 900}),
                             apps::routescout::decode_data, "not RouteScout data",
                             "RouteScout data truncated"));
  cases.push_back(magic_case("routescout_sample", apps::routescout::encode_sample({1, 250}),
                             apps::routescout::decode_sample, "not a latency sample",
                             "sample truncated"));
  cases.push_back(magic_case("silkroad", apps::silkroad::encode_conn({2, 31337}),
                             apps::silkroad::decode_conn, "not a connection packet",
                             "connection packet truncated"));
  return cases;
}

std::string expected_for(const Case& c, std::size_t cut) {
  std::string expected;
  for (const auto& [from, message] : c.cuts) {
    if (from <= cut) expected = message;
  }
  return expected;
}

TEST(Decoders, RejectEveryTruncation) {
  const std::vector<Case> cases = all_decoders();
  // 8 P4Auth frames (one per payload kind and KMP leg), decode_header,
  // and the 13 LLDP, HULA and app decoders.
  ASSERT_EQ(cases.size(), 22u);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_FALSE(c.frame.empty());
    EXPECT_EQ(c.decode(c.frame), "") << "the uncut frame must decode";
    for (std::size_t cut = 0; cut < c.frame.size(); ++cut) {
      // A buffer of exactly the cut's length: nothing readable past it.
      const Bytes truncated(c.frame.begin(), c.frame.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_EQ(c.decode(truncated), expected_for(c, cut)) << "cut at " << cut << " bytes";
    }
    Bytes longer = c.frame;
    longer.push_back(0);
    EXPECT_EQ(c.decode(longer), c.trailing) << "one trailing byte";
  }
}

}  // namespace
}  // namespace p4auth
