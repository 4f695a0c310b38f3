#include "core/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"

namespace p4auth::core {
namespace {

Message sample_register_read() {
  Message m;
  m.header.hdr_type = HdrType::RegisterOp;
  m.header.msg_type = static_cast<std::uint8_t>(RegisterMsg::ReadReq);
  m.header.seq_num = 0x1234;
  m.header.key_version = KeyVersion{3};
  m.header.flags = 0;
  m.header.src = kControllerId;
  m.header.dst = NodeId{7};
  m.header.digest = 0xCAFEBABE;
  m.payload = RegisterOpPayload{RegisterId{1234}, 5, 0xDEADBEEFull};
  return m;
}

TEST(Wire, HeaderSizeIsFourteenBytes) {
  // Table III byte accounting depends on this exact layout.
  EXPECT_EQ(kHeaderSize, 14u);
}

TEST(Wire, TableIIIMessageSizes) {
  // EAK leg 22 B, ADHKD leg 30 B, portKey control 18 B, registerOp 30 B.
  EXPECT_EQ(encoded_size(Payload{EakPayload{}}), 22u);
  EXPECT_EQ(encoded_size(Payload{AdhkdPayload{}}), 30u);
  EXPECT_EQ(encoded_size(Payload{PortKeyPayload{}}), 18u);
  EXPECT_EQ(encoded_size(Payload{RegisterOpPayload{}}), 30u);
  EXPECT_EQ(encoded_size(Payload{AlertPayload{}}), 26u);
}

TEST(Wire, TableIIIOperationTotals) {
  // local init = 2 EAK + 2 ADHKD = 104 B; local update = 2 ADHKD = 60 B;
  // port init = portKeyInit + 4 ADHKD = 138 B; port update = 18 + 60 = 78.
  const std::size_t eak = encoded_size(Payload{EakPayload{}});
  const std::size_t adhkd = encoded_size(Payload{AdhkdPayload{}});
  const std::size_t port_ctl = encoded_size(Payload{PortKeyPayload{}});
  EXPECT_EQ(2 * eak + 2 * adhkd, 104u);
  EXPECT_EQ(2 * adhkd, 60u);
  EXPECT_EQ(port_ctl + 4 * adhkd, 138u);
  EXPECT_EQ(port_ctl + 2 * adhkd, 78u);
}

TEST(Wire, RegisterOpRoundTrip) {
  const Message m = sample_register_read();
  const Bytes frame = encode(m);
  EXPECT_EQ(frame.size(), 30u);
  auto decoded = decode(frame);
  ASSERT_TRUE(decoded.ok());
  const Message& d = decoded.value();
  EXPECT_EQ(d.header.hdr_type, HdrType::RegisterOp);
  EXPECT_EQ(d.header.seq_num, 0x1234);
  EXPECT_EQ(d.header.key_version, KeyVersion{3});
  EXPECT_EQ(d.header.dst, NodeId{7});
  EXPECT_EQ(d.header.digest, 0xCAFEBABEu);
  EXPECT_EQ(std::get<RegisterOpPayload>(d.payload),
            (RegisterOpPayload{RegisterId{1234}, 5, 0xDEADBEEFull}));
}

TEST(Wire, AllKeyExchangeVariantsRoundTrip) {
  Message m;
  m.header.hdr_type = HdrType::KeyExchange;
  m.header.src = NodeId{1};
  m.header.dst = NodeId{2};

  m.header.msg_type = static_cast<std::uint8_t>(KeyExchMsg::EakExch);
  m.payload = EakPayload{0xA1A2A3A4A5A6A7A8ull};
  auto d1 = decode(encode(m));
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(std::get<EakPayload>(d1.value().payload).salt, 0xA1A2A3A4A5A6A7A8ull);

  m.header.msg_type = static_cast<std::uint8_t>(KeyExchMsg::InitKeyExch);
  m.header.flags = kFlagPortScope | kFlagResponse;
  m.payload = AdhkdPayload{0x1111ull, 0x2222ull};
  auto d2 = decode(encode(m));
  ASSERT_TRUE(d2.ok());
  EXPECT_TRUE(d2.value().header.is_response());
  EXPECT_TRUE(d2.value().header.is_port_scope());
  EXPECT_EQ(std::get<AdhkdPayload>(d2.value().payload), (AdhkdPayload{0x1111ull, 0x2222ull}));

  m.header.msg_type = static_cast<std::uint8_t>(KeyExchMsg::PortKeyUpdate);
  m.header.flags = 0;
  m.payload = PortKeyPayload{PortId{9}, NodeId{4}};
  auto d3 = decode(encode(m));
  ASSERT_TRUE(d3.ok());
  EXPECT_EQ(std::get<PortKeyPayload>(d3.value().payload), (PortKeyPayload{PortId{9}, NodeId{4}}));
}

TEST(Wire, AlertRoundTrip) {
  Message m;
  m.header.hdr_type = HdrType::Alert;
  m.header.msg_type = static_cast<std::uint8_t>(AlertMsg::ReplayDetected);
  m.payload = AlertPayload{77, 100, 99, 5};
  auto d = decode(encode(m));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(std::get<AlertPayload>(d.value().payload), (AlertPayload{77, 100, 99, 5}));
}

TEST(Wire, DpDataCarriesArbitraryInner) {
  Message m;
  m.header.hdr_type = HdrType::DpData;
  m.header.msg_type = 1;
  m.payload = DpDataPayload{Bytes{0x50, 1, 2, 3, 4, 5}};
  const Bytes frame = encode(m);
  EXPECT_EQ(frame.size(), kHeaderSize + 6);
  auto d = decode(frame);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(std::get<DpDataPayload>(d.value().payload).inner, (Bytes{0x50, 1, 2, 3, 4, 5}));
}

TEST(Wire, DpDataEmptyInner) {
  Message m;
  m.header.hdr_type = HdrType::DpData;
  m.payload = DpDataPayload{};
  auto d = decode(encode(m));
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(std::get<DpDataPayload>(d.value().payload).inner.empty());
}

TEST(Wire, DecodeRejectsTruncation) {
  const Bytes frame = encode(sample_register_read());
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(decode(std::span(frame.data(), len)).ok()) << "len=" << len;
  }
}

TEST(Wire, DecodeRejectsTrailingBytes) {
  Bytes frame = encode(sample_register_read());
  frame.push_back(0);
  EXPECT_FALSE(decode(frame).ok());
}

TEST(Wire, DecodeRejectsUnknownTypes) {
  Bytes frame = encode(sample_register_read());
  frame[0] = 0;  // hdrType
  EXPECT_FALSE(decode(frame).ok());
  frame[0] = 9;
  EXPECT_FALSE(decode(frame).ok());
  frame[0] = 1;
  frame[1] = 7;  // register msgType out of range
  EXPECT_FALSE(decode(frame).ok());
}

TEST(Wire, LooksLikeP4AuthHeuristic) {
  EXPECT_TRUE(looks_like_p4auth(encode(sample_register_read())));
  const Bytes short_frame(5, 1);
  EXPECT_FALSE(looks_like_p4auth(short_frame));
  Bytes plain(20, 0);
  plain[0] = 0x50;  // probe magic, not p4auth
  EXPECT_FALSE(looks_like_p4auth(plain));
}

/// The digest cover of an encoded frame, concatenated.
Bytes cover_bytes(std::span<const std::uint8_t> frame) {
  const DigestCover cover = digest_cover(frame);
  Bytes out(cover.size());
  std::copy(cover.tail.begin(), cover.tail.end(),
            std::copy(cover.head.begin(), cover.head.end(), out.begin()));
  return out;
}

TEST(Wire, DigestInputExcludesDigestField) {
  const Message a = sample_register_read();
  Message b = a;
  b.header.digest = 0;  // different digest, same everything else
  const Bytes frame = encode(a);
  EXPECT_EQ(cover_bytes(frame), cover_bytes(encode(b)));
  EXPECT_EQ(digest_cover(frame).size(), frame.size() - 4);
  b.header.seq_num ^= 1;  // any covered field changes the input
  EXPECT_NE(cover_bytes(frame), cover_bytes(encode(b)));
}

TEST(Wire, DigestInputCoversPayload) {
  Message a = sample_register_read();
  Message b = a;
  std::get<RegisterOpPayload>(b.payload).value ^= 1;
  EXPECT_NE(cover_bytes(encode(a)), cover_bytes(encode(b)));
}

TEST(Wire, DigestFieldReadsAndWritesInPlace) {
  const Message m = sample_register_read();
  Bytes frame = encode(m);
  EXPECT_EQ(read_digest(frame), 0xCAFEBABEu);
  write_digest(frame, 0x01020304u);
  EXPECT_EQ(read_digest(frame), 0x01020304u);
  Message expected = m;
  expected.header.digest = 0x01020304u;
  EXPECT_EQ(frame, encode(expected));  // only the digest field changed
}

// Property: random mutations of a valid frame either fail to decode or
// decode to a different message — decode never "fixes" corruption.
TEST(Wire, FuzzMutatedFrames) {
  Xoshiro256 rng(31);
  const Message original = sample_register_read();
  const Bytes frame = encode(original);
  for (int i = 0; i < 2000; ++i) {
    Bytes mutated = frame;
    const std::size_t pos = rng.next_below(mutated.size());
    const auto bit = static_cast<std::uint8_t>(1u << rng.next_below(8));
    mutated[pos] ^= bit;
    auto decoded = decode(mutated);
    if (!decoded.ok()) continue;
    const Bytes re = encode(decoded.value());
    EXPECT_EQ(re, mutated);  // decode/encode are mutually consistent
    EXPECT_NE(re, frame);
  }
}

// Property: random garbage never crashes the decoder.
TEST(Wire, FuzzRandomGarbage) {
  Xoshiro256 rng(37);
  for (int i = 0; i < 5000; ++i) {
    Bytes garbage(rng.next_below(64));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next_u64());
    auto result = decode(garbage);
    if (result.ok()) {
      EXPECT_EQ(encode(result.value()), garbage);
    }
  }
}

}  // namespace
}  // namespace p4auth::core
