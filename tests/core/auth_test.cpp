#include "core/auth.hpp"

#include <gtest/gtest.h>

#include "dataplane/digest_extern.hpp"

namespace p4auth::core {
namespace {

constexpr Key64 kKey = 0x0123456789ABCDEFull;

Message sample() {
  Message m;
  m.header.hdr_type = HdrType::RegisterOp;
  m.header.msg_type = static_cast<std::uint8_t>(RegisterMsg::WriteReq);
  m.header.seq_num = 42;
  m.header.src = kControllerId;
  m.header.dst = NodeId{3};
  m.payload = RegisterOpPayload{RegisterId{99}, 2, 1234};
  return m;
}

/// `m` encoded and sealed under `key`.
Bytes sealed(crypto::MacKind mac, const Message& m, Key64 key = kKey) {
  Bytes frame = encode(m);
  seal_frame(mac, key, frame);
  return frame;
}

class AuthMacSweep : public ::testing::TestWithParam<crypto::MacKind> {};

TEST_P(AuthMacSweep, TagThenVerify) {
  const Bytes frame = sealed(GetParam(), sample());
  EXPECT_NE(read_digest(frame), 0u);
  EXPECT_TRUE(verify_frame(GetParam(), kKey, frame));
}

TEST_P(AuthMacSweep, WrongKeyFails) {
  const Bytes frame = sealed(GetParam(), sample());
  EXPECT_FALSE(verify_frame(GetParam(), kKey ^ 1, frame));
}

TEST_P(AuthMacSweep, AnyHeaderFieldTamperFails) {
  // Each case re-encodes the sealed message with one header field changed
  // and the original digest carried over: what an on-path rewrite yields.
  Message m = sample();
  m.header.digest = read_digest(sealed(GetParam(), m));
  ASSERT_TRUE(verify_frame(GetParam(), kKey, encode(m)));

  Message t = m;
  t.header.msg_type = static_cast<std::uint8_t>(RegisterMsg::ReadReq);
  EXPECT_FALSE(verify_frame(GetParam(), kKey, encode(t)));

  t = m;
  t.header.seq_num ^= 1;
  EXPECT_FALSE(verify_frame(GetParam(), kKey, encode(t)));

  t = m;
  t.header.key_version.value ^= 1;
  EXPECT_FALSE(verify_frame(GetParam(), kKey, encode(t)));

  t = m;
  t.header.flags ^= kFlagResponse;
  EXPECT_FALSE(verify_frame(GetParam(), kKey, encode(t)));

  t = m;
  t.header.src = NodeId{9};
  EXPECT_FALSE(verify_frame(GetParam(), kKey, encode(t)));

  t = m;
  t.header.dst = NodeId{9};
  EXPECT_FALSE(verify_frame(GetParam(), kKey, encode(t)));
}

TEST_P(AuthMacSweep, PayloadTamperFails) {
  // The exact attack of Fig. 9: flip the value in a register response.
  Message m = sample();
  m.header.digest = read_digest(sealed(GetParam(), m));
  std::get<RegisterOpPayload>(m.payload).value = 9999;
  EXPECT_FALSE(verify_frame(GetParam(), kKey, encode(m)));
}

TEST_P(AuthMacSweep, DigestSurvivesEncodeDecode) {
  const Bytes frame = sealed(GetParam(), sample());
  auto decoded = decode(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().header.digest, read_digest(frame));
  EXPECT_EQ(encode(decoded.value()), frame);
  EXPECT_TRUE(verify_frame(GetParam(), kKey, encode(decoded.value())));
}

INSTANTIATE_TEST_SUITE_P(Macs, AuthMacSweep,
                         ::testing::Values(crypto::MacKind::HalfSipHash24,
                                           crypto::MacKind::Crc32Envelope));

TEST(Auth, CostBillingVariantMatches) {
  // The data plane computes the same tag through its billed extern over
  // the frame's digest cover: one hash call over everything but the
  // 4 digest bytes.
  const Bytes frame = sealed(crypto::MacKind::HalfSipHash24, sample());
  const dataplane::DigestExtern extern_fn(crypto::MacKind::HalfSipHash24);
  dataplane::PacketCosts costs;
  const DigestCover cover = digest_cover(frame);
  EXPECT_EQ(extern_fn.compute(kKey, cover.head, cover.tail, costs), read_digest(frame));
  EXPECT_EQ(costs.hash_calls, 1);
  EXPECT_EQ(costs.hashed_bytes, frame.size() - 4);
}

TEST(Auth, DpDataTagging) {
  Message m;
  m.header.hdr_type = HdrType::DpData;
  m.header.msg_type = 1;
  m.header.src = NodeId{4};
  m.payload = DpDataPayload{Bytes{0x50, 9, 9, 9}};
  Bytes frame = sealed(crypto::MacKind::HalfSipHash24, m);
  EXPECT_TRUE(verify_frame(crypto::MacKind::HalfSipHash24, kKey, frame));
  // The HULA attack: rewrite probeUtil inside the carried probe.
  frame[kHeaderSize + 1] = 1;
  EXPECT_FALSE(verify_frame(crypto::MacKind::HalfSipHash24, kKey, frame));
}

}  // namespace
}  // namespace p4auth::core
