#include "dataplane/digest_extern.hpp"

#include <gtest/gtest.h>

namespace p4auth::dataplane {
namespace {

const std::uint8_t kMsg[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
// The extern hashes a two-span input (a frame's digest cover); split the
// message the way a 4-byte field gap would.
const std::span<const std::uint8_t> kHead = std::span(kMsg).first(6);
const std::span<const std::uint8_t> kTail = std::span(kMsg).subspan(6);
constexpr Key64 kKey = 0xFEEDFACE12345678ull;

TEST(DigestExtern, ComputeVerifyRoundTrip) {
  const DigestExtern extern_fn(crypto::MacKind::HalfSipHash24);
  PacketCosts costs;
  const Digest32 tag = extern_fn.compute(kKey, kHead, kTail, costs);
  EXPECT_TRUE(extern_fn.verify(kKey, kHead, kTail, tag, costs));
}

TEST(DigestExtern, VerifyRejectsWrongKeyOrTag) {
  const DigestExtern extern_fn(crypto::MacKind::HalfSipHash24);
  PacketCosts costs;
  const Digest32 tag = extern_fn.compute(kKey, kHead, kTail, costs);
  EXPECT_FALSE(extern_fn.verify(kKey + 1, kHead, kTail, tag, costs));
  EXPECT_FALSE(extern_fn.verify(kKey, kHead, kTail, tag ^ 0x80000000u, costs));
}

TEST(DigestExtern, BillsHashCosts) {
  const DigestExtern extern_fn(crypto::MacKind::Crc32Envelope);
  PacketCosts costs;
  extern_fn.compute(kKey, kHead, kTail, costs);
  EXPECT_EQ(costs.hash_calls, 1);
  EXPECT_EQ(costs.hashed_bytes, sizeof(kMsg));
  extern_fn.verify(kKey, kHead, kTail, 0, costs);
  EXPECT_EQ(costs.hash_calls, 2);
  EXPECT_EQ(costs.hashed_bytes, 2 * sizeof(kMsg));
}

TEST(DigestExtern, MatchesCryptoLayer) {
  // The extern must be a pure pass-through to the MAC primitive — the
  // same tag a controller computes in software must verify in the plane,
  // and the split input hashes as its concatenation.
  const DigestExtern extern_fn(crypto::MacKind::Crc32Envelope);
  PacketCosts costs;
  EXPECT_EQ(extern_fn.compute(kKey, kHead, kTail, costs),
            crypto::compute_digest(crypto::MacKind::Crc32Envelope, kKey, kMsg));
}

TEST(DigestExtern, KindsProduceDifferentTags) {
  PacketCosts costs;
  const DigestExtern sip(crypto::MacKind::HalfSipHash24);
  const DigestExtern crc(crypto::MacKind::Crc32Envelope);
  EXPECT_NE(sip.compute(kKey, kHead, kTail, costs), crc.compute(kKey, kHead, kTail, costs));
}

}  // namespace
}  // namespace p4auth::dataplane
