#include "common/bytes.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace p4auth {
namespace {

TEST(ByteWriter, WritesNetworkOrder) {
  Bytes buf;
  ByteWriter w(buf);
  w.u8(0xAB).u16(0x1234).u32(0xDEADBEEF).u64(0x0102030405060708ull);
  const Bytes expected = {0xAB, 0x12, 0x34, 0xDE, 0xAD, 0xBE, 0xEF,
                          0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
  EXPECT_EQ(buf, expected);
}

TEST(ByteWriter, RawAppends) {
  Bytes buf;
  ByteWriter w(buf);
  const Bytes chunk = {1, 2, 3};
  w.raw(chunk).raw(chunk);
  EXPECT_EQ(buf.size(), 6u);
  EXPECT_EQ(buf[3], 1u);
}

TEST(ByteReader, ReadsBackWhatWriterWrote) {
  Bytes buf;
  ByteWriter w(buf);
  w.u8(7).u16(300).u32(70000).u64(1ull << 40);
  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u16(), 300u);
  EXPECT_EQ(r.u32(), 70000u);
  EXPECT_EQ(r.u64(), 1ull << 40);
  EXPECT_TRUE(r.exhausted());
  EXPECT_FALSE(r.failed());
}

TEST(ByteReader, FailsPastEnd) {
  const Bytes buf = {1, 2, 3};
  ByteReader r(buf);
  EXPECT_EQ(r.u16(), 0x0102u);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(r.u16(), 0u);  // past the end: zero, nothing consumed
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_EQ(r.u8(), 3u);  // a read that fits still reads...
  EXPECT_TRUE(r.failed());  // ...and the failure stays latched
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteReader, RawExactAndPastEnd) {
  const Bytes buf = {9, 8, 7, 6};
  ByteReader r(buf);
  const auto head = r.view(3);
  EXPECT_EQ(Bytes(head.begin(), head.end()), (Bytes{9, 8, 7}));
  EXPECT_FALSE(r.failed());
  EXPECT_TRUE(r.view(2).empty());
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_EQ(r.view(1).size(), 1u);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteReader, ViewBorrowsWithoutCopying) {
  const Bytes buf = {9, 8, 7, 6};
  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 9u);
  const auto view = r.view(2);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(view.size(), 2u);
  EXPECT_EQ(view.data(), buf.data() + 1);  // a window, not a copy
  EXPECT_EQ(view[0], 8u);
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(ByteReader, ViewPastEndFailsWithoutConsuming) {
  const Bytes buf = {1, 2};
  ByteReader r(buf);
  EXPECT_TRUE(r.view(3).empty());
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_TRUE(r.view(0).empty());
  EXPECT_EQ(r.view(2).data(), buf.data());
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteReader, EmptyBufferBehaviour) {
  ByteReader r(std::span<const std::uint8_t>{});
  EXPECT_TRUE(r.exhausted());
  EXPECT_TRUE(r.view(0).empty());
  EXPECT_FALSE(r.failed());  // a zero-length view fits
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_TRUE(r.failed());
}

// Property: any randomly generated write sequence round-trips.
TEST(ByteCodec, RandomRoundTripProperty) {
  Xoshiro256 rng(42);
  for (int iter = 0; iter < 200; ++iter) {
    Bytes buf;
    ByteWriter w(buf);
    std::vector<std::pair<int, std::uint64_t>> ops;
    const int n_ops = 1 + static_cast<int>(rng.next_below(20));
    for (int i = 0; i < n_ops; ++i) {
      const int kind = static_cast<int>(rng.next_below(4));
      const std::uint64_t v = rng.next_u64();
      ops.emplace_back(kind, v);
      switch (kind) {
        case 0: w.u8(static_cast<std::uint8_t>(v)); break;
        case 1: w.u16(static_cast<std::uint16_t>(v)); break;
        case 2: w.u32(static_cast<std::uint32_t>(v)); break;
        case 3: w.u64(v); break;
      }
    }
    ByteReader r(buf);
    for (const auto& [kind, v] : ops) {
      switch (kind) {
        case 0: EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(v)); break;
        case 1: EXPECT_EQ(r.u16(), static_cast<std::uint16_t>(v)); break;
        case 2: EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(v)); break;
        case 3: EXPECT_EQ(r.u64(), v); break;
      }
    }
    EXPECT_TRUE(r.exhausted());
    EXPECT_FALSE(r.failed());
  }
}

TEST(Hex, RendersBytes) {
  const Bytes buf = {0xDE, 0xAD, 0x01};
  EXPECT_EQ(to_hex(buf), "de:ad:01");
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>{}), "");
}

}  // namespace
}  // namespace p4auth
