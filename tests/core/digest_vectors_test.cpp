// Golden digest vectors: the 4 digest bytes of one sealed frame per
// (hdrType, msgType), plus DpData plain, encrypted-flagged and with an
// empty inner payload, under both data-plane MACs. The values were
// captured from the Message-based tagging the frame seal replaced, so
// they pin that the digest covers exactly the same bytes as before.
#include <gtest/gtest.h>

#include "core/auth.hpp"

namespace p4auth::core {
namespace {

constexpr Key64 kKey = 0x0123456789ABCDEFull;

Message frame(HdrType type, std::uint8_t msg_type, std::uint8_t flags, Payload payload) {
  Message m;
  m.header.hdr_type = type;
  m.header.msg_type = msg_type;
  m.header.seq_num = 0x1234;
  m.header.key_version = KeyVersion{3};
  m.header.flags = flags;
  m.header.src = NodeId{0x0102};
  m.header.dst = NodeId{0x0304};
  m.payload = std::move(payload);
  return m;
}

Bytes probe_bytes() {
  Bytes probe;
  for (std::uint8_t i = 0; i < 23; ++i) probe.push_back(static_cast<std::uint8_t>(0x50 + i));
  return probe;
}

struct Vector {
  const char* name;
  Message message;
  Digest32 halfsiphash24;
  Digest32 crc32_envelope;
};

std::vector<Vector> vectors() {
  const RegisterOpPayload reg{RegisterId{0x0A0B0C0D}, 0x11223344u, 0x0102030405060708ull};
  const AdhkdPayload adhkd{0x0123456789ABCDEFull, 0xFEDCBA9876543210ull};
  const PortKeyPayload port_key{PortId{7}, NodeId{9}};
  const AlertPayload alert{0xDEADBEEFu, 0x0102, 0x0304, 0x0A0B0C0Du};
  const std::uint8_t response = kFlagResponse;
  return {
      {"reg_read_req", frame(HdrType::RegisterOp, 1, 0, reg), 0xAA54F43Eu, 0x33637C00u},
      {"reg_write_req", frame(HdrType::RegisterOp, 2, 0, reg), 0x2D721301u, 0x6874CD15u},
      {"reg_ack", frame(HdrType::RegisterOp, 3, response, reg), 0x17A73779u, 0x3D8184C2u},
      {"reg_nack", frame(HdrType::RegisterOp, 4, response, reg), 0x6D9EF850u, 0xBD5C761Bu},
      {"kx_eak", frame(HdrType::KeyExchange, 1, 0, EakPayload{0x1122334455667788ull}),
       0x661FB677u, 0x55058CBFu},
      {"kx_init", frame(HdrType::KeyExchange, 2, kFlagPortScope, adhkd), 0x93257DEDu,
       0x4241678Bu},
      {"kx_upd", frame(HdrType::KeyExchange, 3, response, adhkd), 0xDA3723B0u, 0xD1BB9C14u},
      {"kx_port_init", frame(HdrType::KeyExchange, 4, 0, port_key), 0xBFDDEE32u, 0x742F3D2Au},
      {"kx_port_update", frame(HdrType::KeyExchange, 5, 0, port_key), 0x57CDFFE7u,
       0xEBF5BEB4u},
      {"alert_digest_mismatch", frame(HdrType::Alert, 1, 0, alert), 0xCE696709u, 0xE9C8683Eu},
      {"alert_replay", frame(HdrType::Alert, 2, 0, alert), 0xC030C535u, 0x4CC00352u},
      {"alert_unknown_register", frame(HdrType::Alert, 3, 0, alert), 0xF4C274C4u, 0x2FC7DA76u},
      {"alert_rate_limited", frame(HdrType::Alert, 4, 0, alert), 0xE045CE94u, 0xDDA1D3CBu},
      {"alert_missing_auth", frame(HdrType::Alert, 5, 0, alert), 0x8DA3D96Eu, 0xBEA60AEFu},
      {"dp_plain", frame(HdrType::DpData, 1, 0, DpDataPayload{probe_bytes()}), 0xBD486604u,
       0x9DC78CDBu},
      {"dp_encrypted", frame(HdrType::DpData, 1, kFlagEncrypted, DpDataPayload{probe_bytes()}),
       0x29F3D637u, 0xA597D44Cu},
      {"dp_empty", frame(HdrType::DpData, 1, 0, DpDataPayload{}), 0xC50AA9A1u, 0xDDD49982u},
  };
}

Bytes sealed(crypto::MacKind mac, const Message& m) {
  Bytes out = encode(m);
  seal_frame(mac, kKey, out);
  return out;
}

TEST(DigestVectors, SealedFramesMatchPinnedDigests) {
  for (const Vector& v : vectors()) {
    SCOPED_TRACE(v.name);
    const Bytes sip = sealed(crypto::MacKind::HalfSipHash24, v.message);
    const Bytes crc = sealed(crypto::MacKind::Crc32Envelope, v.message);
    EXPECT_EQ(read_digest(sip), v.halfsiphash24);
    EXPECT_EQ(read_digest(crc), v.crc32_envelope);
    // Sealing writes the digest field and nothing else.
    Message expected = v.message;
    expected.header.digest = v.halfsiphash24;
    EXPECT_EQ(sip, encode(expected));
  }
}

class DigestFlipSweep : public ::testing::TestWithParam<crypto::MacKind> {};

TEST_P(DigestFlipSweep, AnySingleByteFlipFailsVerification) {
  // Property: changing any one byte of a sealed frame — header field,
  // payload or the digest itself — makes it fail verification.
  for (const Vector& v : vectors()) {
    SCOPED_TRACE(v.name);
    const Bytes frame = sealed(GetParam(), v.message);
    ASSERT_TRUE(verify_frame(GetParam(), kKey, frame));
    for (std::size_t i = 0; i < frame.size(); ++i) {
      for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
        Bytes tampered = frame;
        tampered[i] ^= mask;
        EXPECT_FALSE(verify_frame(GetParam(), kKey, tampered))
            << "byte " << i << " ^ " << static_cast<int>(mask);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Macs, DigestFlipSweep,
                         ::testing::Values(crypto::MacKind::HalfSipHash24,
                                           crypto::MacKind::Crc32Envelope));

}  // namespace
}  // namespace p4auth::core
