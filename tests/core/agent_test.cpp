#include "core/agent.hpp"

#include <gtest/gtest.h>

#include "core/auth.hpp"

namespace p4auth::core {
namespace {

constexpr Key64 kSeed = 0x5EED5EED5EED5EEDull;
constexpr std::uint8_t kProbeMagic = 0x50;
constexpr NodeId kSelf{5};
constexpr NodeId kPeer{6};
constexpr RegisterId kUserReg{1234};
constexpr crypto::MacKind kMac = crypto::MacKind::HalfSipHash24;

/// Seals `m`'s encoding under `key` and keeps the digest in its header,
/// so encode(m) yields the sealed frame and a later field edit stales it.
void seal(Message& m, Key64 key) {
  Bytes frame = encode(m);
  seal_frame(kMac, key, frame);
  m.header.digest = read_digest(frame);
}

/// Minimal in-network app: probes (magic 0x50) record their second byte
/// into "probe_val" and are forwarded out port 2; everything else goes out
/// port 3.
class ProbeForwarder : public dataplane::DataPlaneProgram {
 public:
  dataplane::PipelineOutput process(dataplane::Packet& packet,
                                    dataplane::PipelineContext& ctx) override {
    if (!packet.payload.empty() && packet.payload[0] == kProbeMagic) {
      if (auto* reg = ctx.registers().by_name("probe_val")) {
        (void)reg->write(0, packet.payload.size() > 1 ? packet.payload[1] : 0);
      }
      return dataplane::PipelineOutput::unicast(PortId{2}, packet.payload);
    }
    return dataplane::PipelineOutput::unicast(PortId{3}, packet.payload);
  }
};

class AgentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    P4AuthAgent::Config config;
    config.self = kSelf;
    config.k_seed = kSeed;
    config.mac = kMac;
    config.num_ports = 8;
    config.alert_rate_limit = 32;
    agent_ = std::make_unique<P4AuthAgent>(config, regs_, std::make_unique<ProbeForwarder>());
    (void)regs_.create("user_reg", kUserReg, 16, 64);
    (void)regs_.create("probe_val", RegisterId{77}, 1, 64);
    ASSERT_TRUE(agent_->expose_register(kUserReg, "user_reg").ok());
    agent_->add_protected_magic(kProbeMagic);
    agent_->set_neighbor(PortId{1}, kPeer);
  }

  dataplane::PipelineOutput deliver(Bytes payload, PortId ingress) {
    dataplane::Packet packet;
    packet.payload = std::move(payload);
    packet.ingress = ingress;
    packet.arrival = now_;
    dataplane::PipelineContext ctx(regs_, rng_, now_, kSelf);
    return agent_->process(packet, ctx);
  }

  Message make_register_request(RegisterMsg op, std::uint32_t index, std::uint64_t value,
                                Key64 key, KeyVersion version = {}) {
    Message m;
    m.header.hdr_type = HdrType::RegisterOp;
    m.header.msg_type = static_cast<std::uint8_t>(op);
    m.header.seq_num = ctl_seq_.next();
    m.header.key_version = version;
    m.header.src = kControllerId;
    m.header.dst = kSelf;
    m.payload = RegisterOpPayload{kUserReg, index, value};
    seal(m, key);
    return m;
  }

  /// Drives EAK + ADHKD as the controller would; returns K_local.
  Key64 establish_local_key() {
    EakInitiator eak(schedule_, kSeed);
    Message m1;
    m1.header.hdr_type = HdrType::KeyExchange;
    m1.header.msg_type = static_cast<std::uint8_t>(KeyExchMsg::EakExch);
    m1.header.seq_num = ctl_seq_.next();
    m1.header.src = kControllerId;
    m1.header.dst = kSelf;
    m1.payload = eak.start(ctl_rng_);
    seal(m1, kSeed);
    auto out1 = deliver(encode(m1), kCpuPort);
    EXPECT_EQ(out1.to_cpu.size(), 1u);
    const Message resp1 = decode(out1.to_cpu.at(0)).value();
    EXPECT_TRUE(verify_frame(kMac, kSeed, out1.to_cpu.at(0)));
    const Key64 k_auth = eak.finish(std::get<EakPayload>(resp1.payload));

    AdhkdInitiator adhkd(schedule_);
    Message m2;
    m2.header.hdr_type = HdrType::KeyExchange;
    m2.header.msg_type = static_cast<std::uint8_t>(KeyExchMsg::InitKeyExch);
    m2.header.seq_num = ctl_seq_.next();
    m2.header.src = kControllerId;
    m2.header.dst = kSelf;
    m2.payload = adhkd.start(ctl_rng_);
    seal(m2, k_auth);
    auto out2 = deliver(encode(m2), kCpuPort);
    EXPECT_EQ(out2.to_cpu.size(), 1u);
    const Message resp2 = decode(out2.to_cpu.at(0)).value();
    EXPECT_TRUE(verify_frame(kMac, k_auth, out2.to_cpu.at(0)));
    local_key_ = adhkd.finish(std::get<AdhkdPayload>(resp2.payload));
    local_version_ = agent_->keys().current_version(kCpuPort);
    return local_key_;
  }

  /// Runs the controller-redirected port-key init for port 1 <-> kPeer;
  /// returns the shared K_port (derived peer-side).
  Key64 establish_port_key(PortId port) {
    Message init;
    init.header.hdr_type = HdrType::KeyExchange;
    init.header.msg_type = static_cast<std::uint8_t>(KeyExchMsg::PortKeyInit);
    init.header.seq_num = ctl_seq_.next();
    init.header.key_version = local_version_;
    init.header.src = kControllerId;
    init.header.dst = kSelf;
    init.payload = PortKeyPayload{port, kPeer};
    seal(init, local_key_);
    auto out = deliver(encode(init), kCpuPort);
    EXPECT_EQ(out.to_cpu.size(), 1u);
    const Message leg1 = decode(out.to_cpu.at(0)).value();
    EXPECT_TRUE(verify_frame(kMac, local_key_, out.to_cpu.at(0)));
    EXPECT_TRUE(leg1.header.is_port_scope());
    EXPECT_EQ(leg1.header.dst, kPeer);

    // Act as the peer DP: respond, then (as the controller) re-tag the
    // response with this switch's local key and deliver.
    const AdhkdResponse peer =
        adhkd_respond(schedule_, std::get<AdhkdPayload>(leg1.payload), peer_rng_);
    Message leg2;
    leg2.header.hdr_type = HdrType::KeyExchange;
    leg2.header.msg_type = static_cast<std::uint8_t>(KeyExchMsg::InitKeyExch);
    leg2.header.seq_num = leg1.header.seq_num;
    leg2.header.flags = kFlagResponse | kFlagPortScope;
    leg2.header.key_version = local_version_;
    leg2.header.src = kPeer;
    leg2.header.dst = kSelf;
    leg2.payload = peer.reply;
    seal(leg2, local_key_);
    auto out2 = deliver(encode(leg2), kCpuPort);
    EXPECT_TRUE(out2.to_cpu.empty());
    EXPECT_TRUE(agent_->keys().has_key(port));
    port_key_ = peer.master;
    return peer.master;
  }

  Bytes make_probe_frame(PortId port, Key64 port_key, std::uint16_t seq,
                         const Bytes& probe) {
    Message m;
    m.header.hdr_type = HdrType::DpData;
    m.header.msg_type = 1;
    m.header.seq_num = seq;
    m.header.key_version = agent_->keys().current_version(port);
    m.header.src = kPeer;
    m.header.dst = kSelf;
    m.payload = DpDataPayload{probe};
    seal(m, port_key);
    return encode(m);
  }

  dataplane::RegisterFile regs_;
  Xoshiro256 rng_{99};
  Xoshiro256 ctl_rng_{7};
  Xoshiro256 peer_rng_{8};
  KeySchedule schedule_;
  SeqCounter ctl_seq_;
  std::unique_ptr<P4AuthAgent> agent_;
  Key64 local_key_ = 0;
  Key64 port_key_ = 0;
  KeyVersion local_version_{};
  SimTime now_ = SimTime::from_ms(1);
};

TEST_F(AgentTest, WriteRequestUpdatesRegisterAndAcks) {
  establish_local_key();
  const Message req = make_register_request(RegisterMsg::WriteReq, 3, 0xABCD, local_key_,
                                            local_version_);
  auto out = deliver(encode(req), kCpuPort);
  ASSERT_EQ(out.to_cpu.size(), 1u);
  const Message ack = decode(out.to_cpu[0]).value();
  EXPECT_EQ(static_cast<RegisterMsg>(ack.header.msg_type), RegisterMsg::Ack);
  EXPECT_EQ(ack.header.seq_num, req.header.seq_num);
  EXPECT_TRUE(verify_frame(kMac, local_key_, out.to_cpu[0]));
  EXPECT_EQ(regs_.by_name("user_reg")->read(3).value(), 0xABCDu);
  EXPECT_EQ(agent_->stats().writes_served, 1u);
}

TEST_F(AgentTest, ReadRequestReturnsValue) {
  establish_local_key();
  ASSERT_TRUE(regs_.by_name("user_reg")->write(7, 5555).ok());
  const Message req =
      make_register_request(RegisterMsg::ReadReq, 7, 0, local_key_, local_version_);
  auto out = deliver(encode(req), kCpuPort);
  ASSERT_EQ(out.to_cpu.size(), 1u);
  const Message ack = decode(out.to_cpu[0]).value();
  EXPECT_EQ(static_cast<RegisterMsg>(ack.header.msg_type), RegisterMsg::Ack);
  EXPECT_EQ(std::get<RegisterOpPayload>(ack.payload).value, 5555u);
  EXPECT_EQ(agent_->stats().reads_served, 1u);
}

TEST_F(AgentTest, TamperedWriteNacksAlertsAndLeavesRegisterUntouched) {
  establish_local_key();
  Message req = make_register_request(RegisterMsg::WriteReq, 3, 0xAAAA, local_key_,
                                      local_version_);
  // The Fig. 8/9 attack: the compromised OS rewrites the value after the
  // controller tagged the message.
  std::get<RegisterOpPayload>(req.payload).value = 0xFFFF;
  auto out = deliver(encode(req), kCpuPort);
  ASSERT_EQ(out.to_cpu.size(), 2u);  // nAck + alert
  const Message nack = decode(out.to_cpu[0]).value();
  EXPECT_EQ(static_cast<RegisterMsg>(nack.header.msg_type), RegisterMsg::NAck);
  const Message alert = decode(out.to_cpu[1]).value();
  EXPECT_EQ(alert.header.hdr_type, HdrType::Alert);
  EXPECT_EQ(static_cast<AlertMsg>(alert.header.msg_type), AlertMsg::DigestMismatch);
  EXPECT_EQ(regs_.by_name("user_reg")->read(3).value(), 0u);
  EXPECT_EQ(agent_->stats().digest_failures, 1u);
}

TEST_F(AgentTest, ReplayedWriteRejected) {
  establish_local_key();
  const Message req =
      make_register_request(RegisterMsg::WriteReq, 0, 111, local_key_, local_version_);
  const Bytes frame = encode(req);
  auto first = deliver(frame, kCpuPort);
  ASSERT_EQ(first.to_cpu.size(), 1u);
  ASSERT_TRUE(regs_.by_name("user_reg")->write(0, 222).ok());

  auto replay = deliver(frame, kCpuPort);
  EXPECT_EQ(agent_->stats().replay_rejections, 1u);
  EXPECT_EQ(regs_.by_name("user_reg")->read(0).value(), 222u);  // untouched
  ASSERT_EQ(replay.to_cpu.size(), 1u);
  const Message alert = decode(replay.to_cpu[0]).value();
  EXPECT_EQ(static_cast<AlertMsg>(alert.header.msg_type), AlertMsg::ReplayDetected);
}

TEST_F(AgentTest, UnknownRegisterNacks) {
  establish_local_key();
  Message req = make_register_request(RegisterMsg::WriteReq, 0, 1, local_key_, local_version_);
  std::get<RegisterOpPayload>(req.payload).reg_id = RegisterId{9999};
  seal(req, local_key_);  // re-tag: this is a *valid* but bogus request
  auto out = deliver(encode(req), kCpuPort);
  ASSERT_EQ(out.to_cpu.size(), 2u);
  EXPECT_EQ(static_cast<RegisterMsg>(decode(out.to_cpu[0]).value().header.msg_type),
            RegisterMsg::NAck);
  EXPECT_EQ(static_cast<AlertMsg>(decode(out.to_cpu[1]).value().header.msg_type),
            AlertMsg::UnknownRegister);
}

TEST_F(AgentTest, OutOfRangeIndexNacks) {
  establish_local_key();
  const Message req =
      make_register_request(RegisterMsg::ReadReq, 999, 0, local_key_, local_version_);
  auto out = deliver(encode(req), kCpuPort);
  ASSERT_GE(out.to_cpu.size(), 1u);
  EXPECT_EQ(static_cast<RegisterMsg>(decode(out.to_cpu[0]).value().header.msg_type),
            RegisterMsg::NAck);
}

TEST_F(AgentTest, SeedAuthenticatesBeforeLocalKeyInit) {
  const Message req = make_register_request(RegisterMsg::WriteReq, 1, 42, kSeed);
  auto out = deliver(encode(req), kCpuPort);
  ASSERT_EQ(out.to_cpu.size(), 1u);
  EXPECT_EQ(static_cast<RegisterMsg>(decode(out.to_cpu[0]).value().header.msg_type),
            RegisterMsg::Ack);
}

TEST_F(AgentTest, SeedRejectedAfterLocalKeyInit) {
  establish_local_key();
  const Message req = make_register_request(RegisterMsg::WriteReq, 1, 42, kSeed);
  auto out = deliver(encode(req), kCpuPort);
  EXPECT_EQ(agent_->stats().digest_failures, 1u);
}

TEST_F(AgentTest, LocalKeyEstablishment) {
  EXPECT_FALSE(agent_->has_local_key());
  const Key64 key = establish_local_key();
  EXPECT_TRUE(agent_->has_local_key());
  EXPECT_EQ(agent_->keys().current(kCpuPort), key);
  EXPECT_EQ(agent_->stats().key_installs, 1u);
}

TEST_F(AgentTest, LocalKeyUpdateKeepsOldVersionAlive) {
  establish_local_key();
  AdhkdInitiator update(schedule_);
  Message upd;
  upd.header.hdr_type = HdrType::KeyExchange;
  upd.header.msg_type = static_cast<std::uint8_t>(KeyExchMsg::UpdKeyExch);
  upd.header.seq_num = ctl_seq_.next();
  upd.header.key_version = local_version_;
  upd.header.src = kControllerId;
  upd.header.dst = kSelf;
  upd.payload = update.start(ctl_rng_);
  seal(upd, local_key_);
  auto out = deliver(encode(upd), kCpuPort);
  ASSERT_EQ(out.to_cpu.size(), 1u);
  const Message resp = decode(out.to_cpu[0]).value();
  EXPECT_TRUE(verify_frame(kMac, local_key_, out.to_cpu[0]));  // sealed with OLD key
  const Key64 new_key = update.finish(std::get<AdhkdPayload>(resp.payload));
  EXPECT_EQ(agent_->keys().current(kCpuPort), new_key);
  EXPECT_NE(new_key, local_key_);

  // Consistent rollover: a request tagged with the previous version still
  // verifies; one tagged with the new version does too.
  const Message old_style =
      make_register_request(RegisterMsg::WriteReq, 2, 7, local_key_, local_version_);
  EXPECT_EQ(
      static_cast<RegisterMsg>(
          decode(deliver(encode(old_style), kCpuPort).to_cpu.at(0)).value().header.msg_type),
      RegisterMsg::Ack);
  const Message new_style = make_register_request(RegisterMsg::WriteReq, 2, 8, new_key,
                                                  agent_->keys().current_version(kCpuPort));
  EXPECT_EQ(
      static_cast<RegisterMsg>(
          decode(deliver(encode(new_style), kCpuPort).to_cpu.at(0)).value().header.msg_type),
      RegisterMsg::Ack);
}

TEST_F(AgentTest, PortKeyInitViaControllerRedirect) {
  establish_local_key();
  const Key64 port_key = establish_port_key(PortId{1});
  EXPECT_EQ(agent_->keys().current(PortId{1}), port_key);
  EXPECT_EQ(agent_->stats().key_installs, 2u);
}

TEST_F(AgentTest, PortKeyInitNamingAPortOutsideTheSwitchIsRejected) {
  establish_local_key();
  // Port 0 is the local key's slot and port 9 is past this 8-port switch:
  // neither may start an exchange, bind a neighbour or reach a key slot.
  for (const PortId bad : {PortId{0}, PortId{9}}) {
    Message init;
    init.header.hdr_type = HdrType::KeyExchange;
    init.header.msg_type = static_cast<std::uint8_t>(KeyExchMsg::PortKeyInit);
    init.header.seq_num = ctl_seq_.next();
    init.header.key_version = local_version_;
    init.header.src = kControllerId;
    init.header.dst = kSelf;
    init.payload = PortKeyPayload{bad, kPeer};
    seal(init, local_key_);
    auto out = deliver(encode(init), kCpuPort);
    EXPECT_TRUE(out.dropped);
    ASSERT_EQ(out.to_cpu.size(), 1u);  // the alert, no ADHKD leg
    const Message alert = decode(out.to_cpu[0]).value();
    ASSERT_EQ(alert.header.hdr_type, HdrType::Alert);
    EXPECT_EQ(static_cast<AlertMsg>(alert.header.msg_type), AlertMsg::DigestMismatch);
    const auto& payload = std::get<AlertPayload>(alert.payload);
    EXPECT_EQ(payload.context, bad.value);
    EXPECT_EQ(payload.observed_seq, init.header.seq_num);
    EXPECT_EQ(payload.detail, 4u);
  }
  EXPECT_EQ(agent_->stats().key_installs, 1u);
  EXPECT_EQ(agent_->keys().current(kCpuPort), local_key_);
  const Message req =
      make_register_request(RegisterMsg::WriteReq, 1, 42, local_key_, local_version_);
  EXPECT_EQ(static_cast<RegisterMsg>(
                decode(deliver(encode(req), kCpuPort).to_cpu.at(0)).value().header.msg_type),
            RegisterMsg::Ack);
}

TEST_F(AgentTest, VerifiedDpDataReachesInnerProgram) {
  establish_local_key();
  establish_port_key(PortId{1});
  const Bytes probe = {kProbeMagic, 0x42, 1, 2, 3};
  auto out = deliver(make_probe_frame(PortId{1}, port_key_, 100, probe), PortId{1});
  EXPECT_EQ(agent_->stats().feedback_verified, 1u);
  EXPECT_EQ(regs_.by_name("probe_val")->read(0).value(), 0x42u);
  // Forwarded out port 2; port 2 has no key, so it leaves raw.
  ASSERT_EQ(out.emits.size(), 1u);
  EXPECT_EQ(out.emits[0].port, PortId{2});
  EXPECT_EQ(out.emits[0].payload, probe);
}

TEST_F(AgentTest, TamperedDpDataDroppedWithAlert) {
  establish_local_key();
  establish_port_key(PortId{1});
  Bytes frame = make_probe_frame(PortId{1}, port_key_, 100, {kProbeMagic, 0x42});
  frame.back() ^= 0xFF;  // MitM rewrites probeUtil in flight
  auto out = deliver(frame, PortId{1});
  EXPECT_TRUE(out.dropped);
  EXPECT_EQ(agent_->stats().feedback_rejected, 1u);
  EXPECT_EQ(regs_.by_name("probe_val")->read(0).value(), 0u);
  ASSERT_EQ(out.to_cpu.size(), 1u);
  EXPECT_EQ(static_cast<AlertMsg>(decode(out.to_cpu[0]).value().header.msg_type),
            AlertMsg::DigestMismatch);
}

TEST_F(AgentTest, ReplayedDpDataRejected) {
  establish_local_key();
  establish_port_key(PortId{1});
  const Bytes frame = make_probe_frame(PortId{1}, port_key_, 100, {kProbeMagic, 0x42});
  deliver(frame, PortId{1});
  auto out = deliver(frame, PortId{1});
  EXPECT_TRUE(out.dropped);
  EXPECT_EQ(agent_->stats().replay_rejections, 1u);
  EXPECT_EQ(agent_->stats().feedback_verified, 1u);
}

TEST_F(AgentTest, UntaggedProbeDroppedWhenEnforcing) {
  establish_local_key();
  auto out = deliver(Bytes{kProbeMagic, 0x42}, PortId{1});
  EXPECT_TRUE(out.dropped);
  EXPECT_EQ(agent_->stats().unauth_feedback_dropped, 1u);
  ASSERT_EQ(out.to_cpu.size(), 1u);
  EXPECT_EQ(static_cast<AlertMsg>(decode(out.to_cpu[0]).value().header.msg_type),
            AlertMsg::MissingAuth);
}

TEST_F(AgentTest, PlainTrafficPassesThrough) {
  establish_local_key();
  auto out = deliver(Bytes{0x99, 1, 2, 3}, PortId{1});
  ASSERT_EQ(out.emits.size(), 1u);
  EXPECT_EQ(out.emits[0].port, PortId{3});
  EXPECT_EQ(out.emits[0].payload, (Bytes{0x99, 1, 2, 3}));
}

TEST_F(AgentTest, EmittedProbeTaggedWithEgressPortKey) {
  establish_local_key();
  establish_port_key(PortId{1});
  // Give port 2 a key too so the forwarded probe gets wrapped.
  agent_->set_neighbor(PortId{2}, NodeId{9});
  // Re-use the port-key machinery by pretending kPeer moved to port 2.
  Message init;
  init.header.hdr_type = HdrType::KeyExchange;
  init.header.msg_type = static_cast<std::uint8_t>(KeyExchMsg::PortKeyInit);
  init.header.seq_num = ctl_seq_.next();
  init.header.key_version = local_version_;
  init.header.src = kControllerId;
  init.header.dst = kSelf;
  init.payload = PortKeyPayload{PortId{2}, NodeId{9}};
  seal(init, local_key_);
  auto out_init = deliver(encode(init), kCpuPort);
  const Message leg1 = decode(out_init.to_cpu.at(0)).value();
  const AdhkdResponse peer =
      adhkd_respond(schedule_, std::get<AdhkdPayload>(leg1.payload), peer_rng_);
  Message leg2;
  leg2.header.hdr_type = HdrType::KeyExchange;
  leg2.header.msg_type = static_cast<std::uint8_t>(KeyExchMsg::InitKeyExch);
  leg2.header.seq_num = leg1.header.seq_num;
  leg2.header.flags = kFlagResponse | kFlagPortScope;
  leg2.header.key_version = local_version_;
  leg2.header.src = NodeId{9};
  leg2.header.dst = kSelf;
  leg2.payload = peer.reply;
  seal(leg2, local_key_);
  deliver(encode(leg2), kCpuPort);
  ASSERT_TRUE(agent_->keys().has_key(PortId{2}));

  const Bytes probe = {kProbeMagic, 0x42};
  auto out = deliver(make_probe_frame(PortId{1}, port_key_, 50, probe), PortId{1});
  ASSERT_EQ(out.emits.size(), 1u);
  const Message wrapped = decode(out.emits[0].payload).value();
  EXPECT_EQ(wrapped.header.hdr_type, HdrType::DpData);
  EXPECT_EQ(wrapped.header.src, kSelf);
  EXPECT_EQ(wrapped.header.dst, NodeId{9});
  EXPECT_TRUE(verify_frame(kMac, peer.master, out.emits[0].payload));
  EXPECT_EQ(std::get<DpDataPayload>(wrapped.payload).inner, probe);
  EXPECT_EQ(agent_->stats().feedback_tagged, 1u);
}

TEST_F(AgentTest, PortKeyUpdateRunsDirectOverLink) {
  establish_local_key();
  establish_port_key(PortId{1});
  const Key64 old_port_key = port_key_;

  Message upd;
  upd.header.hdr_type = HdrType::KeyExchange;
  upd.header.msg_type = static_cast<std::uint8_t>(KeyExchMsg::PortKeyUpdate);
  upd.header.seq_num = ctl_seq_.next();
  upd.header.key_version = local_version_;
  upd.header.src = kControllerId;
  upd.header.dst = kSelf;
  upd.payload = PortKeyPayload{PortId{1}, kPeer};
  seal(upd, local_key_);
  auto out = deliver(encode(upd), kCpuPort);
  // The first ADHKD leg leaves directly on port 1 (not via the CPU).
  ASSERT_EQ(out.emits.size(), 1u);
  EXPECT_EQ(out.emits[0].port, PortId{1});
  const Message leg1 = decode(out.emits[0].payload).value();
  EXPECT_TRUE(verify_frame(kMac, old_port_key, out.emits[0].payload));
  EXPECT_TRUE(leg1.header.is_port_scope());

  // Peer responds over the link.
  const AdhkdResponse peer =
      adhkd_respond(schedule_, std::get<AdhkdPayload>(leg1.payload), peer_rng_);
  Message leg2;
  leg2.header.hdr_type = HdrType::KeyExchange;
  leg2.header.msg_type = static_cast<std::uint8_t>(KeyExchMsg::UpdKeyExch);
  leg2.header.seq_num = leg1.header.seq_num;
  leg2.header.flags = kFlagResponse | kFlagPortScope;
  leg2.header.key_version = agent_->keys().current_version(PortId{1});
  leg2.header.src = kPeer;
  leg2.header.dst = kSelf;
  leg2.payload = peer.reply;
  seal(leg2, old_port_key);
  auto out2 = deliver(encode(leg2), PortId{1});
  EXPECT_TRUE(out2.emits.empty());
  EXPECT_EQ(agent_->keys().current(PortId{1}), peer.master);
  EXPECT_NE(peer.master, old_port_key);
  // Two-version: frames tagged under the old key still verify.
  EXPECT_EQ(agent_->keys().get(PortId{1}, KeyVersion{1}), old_port_key);
}

TEST_F(AgentTest, AlertRateLimiterCapsAlertFlood) {
  establish_local_key();
  int alerts = 0;
  for (int i = 0; i < 200; ++i) {
    Message req =
        make_register_request(RegisterMsg::WriteReq, 0, 1, local_key_, local_version_);
    std::get<RegisterOpPayload>(req.payload).value = 0xBAD;  // tamper every one
    auto out = deliver(encode(req), kCpuPort);
    for (const auto& frame : out.to_cpu) {
      if (decode(frame).value().header.hdr_type == HdrType::Alert) ++alerts;
    }
  }
  EXPECT_EQ(agent_->stats().digest_failures, 200u);
  EXPECT_LE(alerts, 32);
  EXPECT_GT(agent_->stats().alerts_suppressed, 0u);
}

TEST_F(AgentTest, AuthDisabledServesDpRegRwBaseline) {
  P4AuthAgent::Config config;
  config.self = kSelf;
  config.k_seed = kSeed;
  config.auth_enabled = false;
  dataplane::RegisterFile regs;
  P4AuthAgent baseline(config, regs, std::make_unique<ProbeForwarder>());
  (void)regs.create("user_reg", kUserReg, 16, 64);
  ASSERT_TRUE(baseline.expose_register(kUserReg, "user_reg").ok());

  Message req;
  req.header.hdr_type = HdrType::RegisterOp;
  req.header.msg_type = static_cast<std::uint8_t>(RegisterMsg::WriteReq);
  req.header.seq_num = 1;
  req.header.src = kControllerId;
  req.header.dst = kSelf;
  req.payload = RegisterOpPayload{kUserReg, 4, 77};  // no digest at all

  dataplane::Packet packet;
  packet.payload = encode(req);
  packet.ingress = kCpuPort;
  Xoshiro256 rng(1);
  dataplane::PipelineContext ctx(regs, rng, SimTime::zero(), kSelf);
  auto out = baseline.process(packet, ctx);
  ASSERT_EQ(out.to_cpu.size(), 1u);
  EXPECT_EQ(static_cast<RegisterMsg>(decode(out.to_cpu[0]).value().header.msg_type),
            RegisterMsg::Ack);
  EXPECT_EQ(regs.by_name("user_reg")->read(4).value(), 77u);
}

TEST_F(AgentTest, ResourceDeclarationIncludesP4AuthModules) {
  const auto decl = agent_->resources();
  bool has_mapping = false;
  for (const auto& t : decl.tables) {
    if (t.name == "reg_id_to_name_mapping") has_mapping = true;
  }
  EXPECT_TRUE(has_mapping);
  EXPECT_GE(decl.hash_uses.size(), 6u);
  bool has_keys = false;
  for (const auto& r : decl.registers) {
    if (r.name == "p4auth_keys_a") has_keys = true;
  }
  EXPECT_TRUE(has_keys);
}

}  // namespace
}  // namespace p4auth::core
