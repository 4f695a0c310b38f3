// Agent edge cases: malformed frames, misrouted message types, missing
// keys, and key-chain fuzz.
#include <gtest/gtest.h>

#include "core/agent.hpp"
#include "core/auth.hpp"

namespace p4auth::core {
namespace {

constexpr Key64 kSeed = 0x5EED;
constexpr NodeId kSelf{4};
constexpr crypto::MacKind kMac = crypto::MacKind::HalfSipHash24;

/// `m` encoded and sealed under `key`.
Bytes sealed(const Message& m, Key64 key) {
  Bytes frame = encode(m);
  seal_frame(kMac, key, frame);
  return frame;
}

struct EdgeFixture : ::testing::Test {
  void SetUp() override {
    P4AuthAgent::Config config;
    config.self = kSelf;
    config.k_seed = kSeed;
    config.num_ports = 4;
    agent = std::make_unique<P4AuthAgent>(config, regs, nullptr);
    agent->set_neighbor(PortId{1}, NodeId{9});
  }

  dataplane::PipelineOutput deliver(Bytes payload, PortId ingress) {
    dataplane::Packet packet;
    packet.payload = std::move(payload);
    packet.ingress = ingress;
    dataplane::PipelineContext ctx(regs, rng, SimTime::from_ms(1), kSelf);
    return agent->process(packet, ctx);
  }

  dataplane::RegisterFile regs;
  Xoshiro256 rng{1};
  std::unique_ptr<P4AuthAgent> agent;
};

TEST_F(EdgeFixture, MalformedCpuFrameDroppedWithAlert) {
  auto out = deliver(Bytes{0x01, 0x02}, kCpuPort);  // truncated p4auth
  EXPECT_TRUE(out.dropped);
  ASSERT_EQ(out.to_cpu.size(), 1u);
  const auto alert = decode(out.to_cpu[0]);
  ASSERT_TRUE(alert.ok());
  EXPECT_EQ(alert.value().header.hdr_type, HdrType::Alert);
}

TEST_F(EdgeFixture, RegisterResponseOnCpuPortIsIgnored) {
  Message ack;
  ack.header.hdr_type = HdrType::RegisterOp;
  ack.header.msg_type = static_cast<std::uint8_t>(RegisterMsg::Ack);
  ack.payload = RegisterOpPayload{RegisterId{1}, 0, 0};
    auto out = deliver(sealed(ack, kSeed), kCpuPort);
  EXPECT_TRUE(out.dropped);
  EXPECT_TRUE(out.emits.empty());
}

TEST_F(EdgeFixture, RegisterOpOnDataPortAlerts) {
  Message req;
  req.header.hdr_type = HdrType::RegisterOp;
  req.header.msg_type = static_cast<std::uint8_t>(RegisterMsg::WriteReq);
  req.payload = RegisterOpPayload{RegisterId{1}, 0, 7};
    auto out = deliver(sealed(req, kSeed), PortId{1});
  EXPECT_TRUE(out.dropped);
  ASSERT_EQ(out.to_cpu.size(), 1u);
}

TEST_F(EdgeFixture, NonPortScopeKeyExchangeOnDataPortDropped) {
  Message msg;
  msg.header.hdr_type = HdrType::KeyExchange;
  msg.header.msg_type = static_cast<std::uint8_t>(KeyExchMsg::EakExch);
  msg.payload = EakPayload{1};
    auto out = deliver(sealed(msg, kSeed), PortId{1});
  EXPECT_TRUE(out.dropped);
  EXPECT_TRUE(out.emits.empty());
}

TEST_F(EdgeFixture, PortKeyUpdateWithoutPortKeyAlerts) {
  // Establish a local key so the PortKeyUpdate itself authenticates.
  EakInitiator eak(KeySchedule{}, kSeed);
  Message m1;
  m1.header.hdr_type = HdrType::KeyExchange;
  m1.header.msg_type = static_cast<std::uint8_t>(KeyExchMsg::EakExch);
  m1.header.seq_num = 1;
  m1.header.src = kControllerId;
  m1.header.dst = kSelf;
  Xoshiro256 ctl_rng(9);
  m1.payload = eak.start(ctl_rng);
    auto out1 = deliver(sealed(m1, kSeed), kCpuPort);
  const Key64 k_auth = eak.finish(std::get<EakPayload>(decode(out1.to_cpu.at(0)).value().payload));

  AdhkdInitiator adhkd{KeySchedule{}};
  Message m2;
  m2.header.hdr_type = HdrType::KeyExchange;
  m2.header.msg_type = static_cast<std::uint8_t>(KeyExchMsg::InitKeyExch);
  m2.header.seq_num = 2;
  m2.header.src = kControllerId;
  m2.header.dst = kSelf;
  m2.payload = adhkd.start(ctl_rng);
    auto out2 = deliver(sealed(m2, k_auth), kCpuPort);
  const Key64 k_local =
      adhkd.finish(std::get<AdhkdPayload>(decode(out2.to_cpu.at(0)).value().payload));

  // Now a PortKeyUpdate for a port that never had a key.
  Message upd;
  upd.header.hdr_type = HdrType::KeyExchange;
  upd.header.msg_type = static_cast<std::uint8_t>(KeyExchMsg::PortKeyUpdate);
  upd.header.seq_num = 3;
  upd.header.key_version = agent->keys().current_version(kCpuPort);
  upd.header.src = kControllerId;
  upd.header.dst = kSelf;
  upd.payload = PortKeyPayload{PortId{2}, NodeId{9}};
    auto out = deliver(sealed(upd, k_local), kCpuPort);
  EXPECT_TRUE(out.dropped);
  EXPECT_TRUE(out.emits.empty());  // no exchange started
  ASSERT_EQ(out.to_cpu.size(), 1u);
  EXPECT_EQ(decode(out.to_cpu[0]).value().header.hdr_type, HdrType::Alert);
}

TEST_F(EdgeFixture, UnsolicitedAdhkdResponseOnDataPortIgnored) {
  Message resp;
  resp.header.hdr_type = HdrType::KeyExchange;
  resp.header.msg_type = static_cast<std::uint8_t>(KeyExchMsg::UpdKeyExch);
  resp.header.flags = kFlagResponse | kFlagPortScope;
  resp.payload = AdhkdPayload{1, 2};
    auto out = deliver(sealed(resp, kSeed), PortId{1});
  EXPECT_TRUE(out.dropped);
  EXPECT_EQ(agent->stats().key_installs, 0u);
}

// Fuzz the version chain: after any sequence of installs, current() is the
// last installed key and exactly one previous version is retrievable.
TEST(VersionedKeyChainFuzz, InvariantsHoldOverRandomSequences) {
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    VersionedKeyChain chain;
    Key64 last = 0, second_last = 0;
    const int installs = 1 + static_cast<int>(rng.next_below(600));
    for (int i = 0; i < installs; ++i) {
      second_last = last;
      last = rng.next_u64();
      chain.install(last);
    }
    EXPECT_EQ(chain.current(), last);
    EXPECT_EQ(chain.get(chain.current_version()), last);
    if (installs >= 2) {
      const KeyVersion previous{static_cast<std::uint8_t>((installs - 1) & 0xFF)};
      EXPECT_EQ(chain.get(previous), second_last);
    }
    // Any other version tag yields nothing.
    const KeyVersion bogus{static_cast<std::uint8_t>((installs + 5) & 0xFF)};
    EXPECT_FALSE(chain.get(bogus).has_value());
  }
}

}  // namespace
}  // namespace p4auth::core
