#include "apps/hula/probe.hpp"

#include <gtest/gtest.h>

namespace p4auth::apps::hula {
namespace {

TEST(HulaProbeCodec, RoundTripWithTrace) {
  Probe probe;
  probe.origin_tor = NodeId{5};
  probe.max_util = 42;
  probe.trace = {{NodeId{5}, PortId{0}, 0}, {NodeId{3}, PortId{2}, 17}};
  const Bytes frame = encode_probe(probe);
  EXPECT_EQ(frame[0], kProbeMagic);
  EXPECT_EQ(frame.size(), 5u + 2 * kHopRecordSize);
  auto decoded = decode_probe(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), probe);
}

TEST(HulaProbeCodec, EmptyTrace) {
  Probe probe;
  probe.origin_tor = NodeId{1};
  auto decoded = decode_probe(encode_probe(probe));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().trace.empty());
}

TEST(HulaProbeCodec, GrowsEightBytesPerHop) {
  // The Fig 21 mechanism: the digested probe grows linearly with hops.
  Probe probe;
  std::size_t last = encode_probe(probe).size();
  for (int i = 0; i < 10; ++i) {
    probe.trace.push_back(HopRecord{NodeId{static_cast<std::uint16_t>(i)}, PortId{1}, 5});
    const std::size_t size = encode_probe(probe).size();
    EXPECT_EQ(size - last, kHopRecordSize);
    last = size;
  }
}

TEST(HulaProbeCodec, RejectsTruncationAndWrongMagic) {
  Probe probe;
  probe.trace = {{NodeId{1}, PortId{1}, 1}};
  Bytes frame = encode_probe(probe);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(decode_probe(std::span(frame.data(), len)).ok());
  }
  frame[0] = 0x99;
  EXPECT_FALSE(decode_probe(frame).ok());
}

TEST(HulaProbeCodec, RejectsTrailingBytes) {
  Bytes frame = encode_probe(Probe{});
  frame.push_back(0);
  EXPECT_FALSE(decode_probe(frame).ok());
}

TEST(HulaProbeCodec, ScratchDecodeAndInBufferEncodeMatchTheOwningCodec) {
  // One scratch probe and one buffer serve a probe's whole life, as in
  // the switch: decode, stamp a hop, re-encode, for up to 12 hops.
  Probe reference;
  reference.origin_tor = NodeId{7};
  reference.max_util = 3;
  Probe scratch;
  scratch.trace.assign(20, HopRecord{NodeId{99}, PortId{99}, 99});  // stale contents
  Bytes buffer(300, 0xEE);                                          // stale bytes
  for (std::uint16_t hop = 0; hop <= 12; ++hop) {
    const Bytes expected = encode_probe(reference);
    ASSERT_TRUE(decode_probe_into(expected, scratch).ok()) << "hops=" << hop;
    EXPECT_EQ(scratch, reference) << "hops=" << hop;
    encode_probe_into(scratch, buffer);
    EXPECT_EQ(buffer, expected) << "hops=" << hop;
    EXPECT_EQ(buffer.size(), encoded_probe_size(scratch));
    reference.trace.push_back(HopRecord{NodeId{hop}, PortId{static_cast<std::uint16_t>(hop + 1)},
                                        static_cast<std::uint8_t>(10 * hop)});
  }
}

TEST(HulaProbeCodec, ScratchDecodeRejectsTruncationAndTrailingBytes) {
  Probe probe;
  probe.trace = {{NodeId{1}, PortId{1}, 1}, {NodeId{2}, PortId{2}, 2}};
  Bytes frame = encode_probe(probe);
  Probe scratch;
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(decode_probe_into(std::span(frame.data(), len), scratch).ok()) << len;
  }
  frame.push_back(0);
  EXPECT_FALSE(decode_probe_into(frame, scratch).ok());
  frame.pop_back();
  EXPECT_TRUE(decode_probe_into(frame, scratch).ok());
  EXPECT_EQ(scratch, probe);
}

TEST(HulaDataCodec, RoundTrip) {
  DataPacket packet{NodeId{5}, 0xABCDEF0123456789ull, 1200};
  auto decoded = decode_data(encode_data(packet));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), packet);
}

TEST(HulaDataCodec, RejectsGarbage) {
  EXPECT_FALSE(decode_data(Bytes{kDataMagic, 1}).ok());
  EXPECT_FALSE(decode_data(Bytes{0x00}).ok());
  EXPECT_FALSE(decode_data({}).ok());
}

TEST(HulaProbeGen, SingleMagicByte) {
  EXPECT_EQ(encode_probe_gen(), Bytes{kProbeGenMagic});
}

}  // namespace
}  // namespace p4auth::apps::hula
