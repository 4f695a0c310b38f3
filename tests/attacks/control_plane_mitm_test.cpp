#include "attacks/control_plane_mitm.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/auth.hpp"

namespace p4auth::attacks {
namespace {

using core::HdrType;
using core::Message;
using core::RegisterMsg;
using core::RegisterOpPayload;

constexpr Key64 kKey = 0x1234567890ABCDEFull;
constexpr RegisterId kTarget{42};

Bytes tagged_write(RegisterId reg, std::uint32_t index, std::uint64_t value) {
  Message msg;
  msg.header.hdr_type = HdrType::RegisterOp;
  msg.header.msg_type = static_cast<std::uint8_t>(RegisterMsg::WriteReq);
  msg.header.seq_num = 9;
  msg.header.src = kControllerId;
  msg.header.dst = NodeId{1};
  msg.payload = RegisterOpPayload{reg, index, value};
  Bytes frame = core::encode(msg);
  core::seal_frame(crypto::MacKind::HalfSipHash24, kKey, frame);
  return frame;
}

Bytes tagged_ack(RegisterId reg, std::uint64_t value) {
  Message msg;
  msg.header.hdr_type = HdrType::RegisterOp;
  msg.header.msg_type = static_cast<std::uint8_t>(RegisterMsg::Ack);
  msg.header.seq_num = 9;
  msg.header.src = NodeId{1};
  msg.header.dst = kControllerId;
  msg.payload = RegisterOpPayload{reg, 0, value};
  Bytes frame = core::encode(msg);
  core::seal_frame(crypto::MacKind::HalfSipHash24, kKey, frame);
  return frame;
}

TEST(WriteValueTamper, RewritesTargetValueAndStalesDigest) {
  auto interposer =
      make_write_value_tamper(kTarget, [](std::uint32_t, std::uint64_t) { return 999ull; });
  Bytes frame = tagged_write(kTarget, 3, 42);
  ASSERT_EQ(interposer.to_dataplane(frame), netsim::TamperVerdict::Pass);
  const Message tampered = core::decode(frame).value();
  EXPECT_EQ(std::get<RegisterOpPayload>(tampered.payload).value, 999u);
  EXPECT_EQ(std::get<RegisterOpPayload>(tampered.payload).index, 3u);
  // The attacker has no key: the digest no longer verifies.
  EXPECT_FALSE(core::verify_frame(crypto::MacKind::HalfSipHash24, kKey, frame));
}

TEST(WriteValueTamper, LeavesOtherRegistersAlone) {
  auto interposer =
      make_write_value_tamper(kTarget, [](std::uint32_t, std::uint64_t) { return 999ull; });
  const Bytes original = tagged_write(RegisterId{7}, 0, 42);
  Bytes frame = original;
  interposer.to_dataplane(frame);
  EXPECT_EQ(frame, original);
}

TEST(WriteValueTamper, LeavesReadsAlone) {
  auto interposer =
      make_write_value_tamper(std::nullopt, [](std::uint32_t, std::uint64_t) { return 1ull; });
  Message msg;
  msg.header.hdr_type = HdrType::RegisterOp;
  msg.header.msg_type = static_cast<std::uint8_t>(RegisterMsg::ReadReq);
  msg.payload = RegisterOpPayload{kTarget, 0, 0};
  Bytes frame = core::encode(msg);
  const Bytes original = frame;
  interposer.to_dataplane(frame);
  EXPECT_EQ(frame, original);
}

TEST(WriteValueTamper, TransformSeesIndex) {
  auto interposer = make_write_value_tamper(
      kTarget, [](std::uint32_t index, std::uint64_t value) {
        return index == 1 ? value * 2 : value;
      });
  Bytes frame0 = tagged_write(kTarget, 0, 10);
  Bytes frame1 = tagged_write(kTarget, 1, 10);
  interposer.to_dataplane(frame0);
  interposer.to_dataplane(frame1);
  EXPECT_EQ(std::get<RegisterOpPayload>(core::decode(frame0).value().payload).value, 10u);
  EXPECT_EQ(std::get<RegisterOpPayload>(core::decode(frame1).value().payload).value, 20u);
}

TEST(CountedImplant, SpendsAShotOnlyWhenItForges) {
  // Forges odd values only, two shots: even values pass without spending
  // one, and once both are spent everything passes through.
  auto interposer = make_write_value_tamper(
      kTarget, counted_implant(2, [](std::uint32_t, std::uint64_t value) {
        return value % 2 == 1 ? std::optional<std::uint64_t>(value + 100) : std::nullopt;
      }));
  std::vector<std::uint64_t> seen;
  for (std::uint64_t value : {2, 1, 4, 3, 5, 7}) {
    Bytes frame = tagged_write(kTarget, 0, value);
    interposer.to_dataplane(frame);
    seen.push_back(std::get<RegisterOpPayload>(core::decode(frame).value().payload).value);
  }
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{2, 101, 4, 103, 5, 7}));
}

TEST(ReportInflater, RewritesAckValue) {
  auto interposer = make_report_inflater(
      kTarget, [](std::uint32_t, std::uint64_t value) { return value * 6; });
  Bytes frame = tagged_ack(kTarget, 100);
  ASSERT_EQ(interposer.to_controller(frame), netsim::TamperVerdict::Pass);
  const Message tampered = core::decode(frame).value();
  EXPECT_EQ(std::get<RegisterOpPayload>(tampered.payload).value, 600u);
  EXPECT_FALSE(core::verify_frame(crypto::MacKind::HalfSipHash24, kKey, frame));
}

TEST(ReportInflater, IgnoresNonP4AuthFrames) {
  auto interposer =
      make_report_inflater(std::nullopt, [](std::uint32_t, std::uint64_t) { return 0ull; });
  Bytes plain = {0x50, 1, 2, 3};
  const Bytes original = plain;
  interposer.to_controller(plain);
  EXPECT_EQ(plain, original);
}

TEST(MessageDropper, DropsMatchingHdrType) {
  auto interposer = make_message_dropper(HdrType::KeyExchange);
  Message msg;
  msg.header.hdr_type = HdrType::KeyExchange;
  msg.header.msg_type = static_cast<std::uint8_t>(core::KeyExchMsg::EakExch);
  msg.payload = core::EakPayload{1};
  Bytes frame = core::encode(msg);
  EXPECT_EQ(interposer.to_dataplane(frame), netsim::TamperVerdict::Drop);

  Bytes write = tagged_write(kTarget, 0, 1);
  EXPECT_EQ(interposer.to_dataplane(write), netsim::TamperVerdict::Pass);
}

TEST(ReplayRecorder, CapturesWriteRequests) {
  ReplayRecorder recorder;
  auto interposer = recorder.interposer();
  Bytes write = tagged_write(kTarget, 0, 1);
  Bytes read;
  {
    Message msg;
    msg.header.hdr_type = HdrType::RegisterOp;
    msg.header.msg_type = static_cast<std::uint8_t>(RegisterMsg::ReadReq);
    msg.payload = RegisterOpPayload{kTarget, 0, 0};
    read = core::encode(msg);
  }
  interposer.to_dataplane(write);
  interposer.to_dataplane(read);
  ASSERT_EQ(recorder.recorded().size(), 1u);
  EXPECT_EQ(recorder.recorded()[0], write);  // byte-exact copy for replay
}

TEST(BogusWriteFlood, GeneratesDecodableForgeries) {
  const auto flood = make_bogus_write_flood(kControllerId, NodeId{1}, kTarget, 64, 7);
  ASSERT_EQ(flood.size(), 64u);
  for (const auto& frame : flood) {
    ASSERT_TRUE(core::decode(frame).ok());
    // Forged digests do not verify under the real key.
    EXPECT_FALSE(core::verify_frame(crypto::MacKind::HalfSipHash24, kKey, frame));
  }
}

}  // namespace
}  // namespace p4auth::attacks
