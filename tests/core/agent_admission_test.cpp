// The agent's four authenticated ingresses (C-DP register ops, C-DP key
// exchange, DP-DP feedback in DpData frames, DP-DP port-key legs) admit a
// frame in one step: digest verify, then the replay window of the slot
// the frame arrived on. For a forged and a replayed frame on each
// ingress these tests pin the counters, the alert the handler raises and
// the trace record the admission step leaves.
#include <gtest/gtest.h>

#include <optional>

#include "core/agent.hpp"
#include "core/auth.hpp"
#include "telemetry/telemetry.hpp"

namespace p4auth::core {
namespace {

constexpr Key64 kSeed = 0x5EED00AD;
constexpr NodeId kSelf{4};
constexpr NodeId kPeer{9};
constexpr PortId kPort{1};
constexpr RegisterId kUserReg{1234};
constexpr crypto::MacKind kMac = crypto::MacKind::HalfSipHash24;

using telemetry::TraceEventKind;

Message make(HdrType type, std::uint8_t msg_type, std::uint16_t seq, KeyVersion version,
             NodeId src, Payload payload, std::uint8_t flags = 0) {
  Message m;
  m.header.hdr_type = type;
  m.header.msg_type = msg_type;
  m.header.seq_num = seq;
  m.header.key_version = version;
  m.header.flags = flags;
  m.header.src = src;
  m.header.dst = kSelf;
  m.payload = std::move(payload);
  return m;
}

Bytes sealed(const Message& m, Key64 key) {
  Bytes frame = encode(m);
  seal_frame(kMac, key, frame);
  return frame;
}

/// A sealed frame with its last byte flipped after tagging.
Bytes forged(const Message& m, Key64 key) {
  Bytes frame = sealed(m, key);
  frame.back() ^= 0x01;
  return frame;
}

std::uint8_t kmp(KeyExchMsg kind) { return static_cast<std::uint8_t>(kind); }

struct AdmissionFixture : ::testing::Test {
  void SetUp() override {
    P4AuthAgent::Config config;
    config.self = kSelf;
    config.k_seed = kSeed;
    config.mac = kMac;
    config.num_ports = 8;
    agent = std::make_unique<P4AuthAgent>(config, regs, nullptr);
    (void)regs.create("user_reg", kUserReg, 16, 64);
    ASSERT_TRUE(agent->expose_register(kUserReg, "user_reg").ok());

    // Local key: EAK (seq 1) then ADHKD (seq 2).
    EakInitiator eak(schedule, kSeed);
    const Message m1 = make(HdrType::KeyExchange, kmp(KeyExchMsg::EakExch), ctl_seq.next(), {},
                            kControllerId, eak.start(ctl_rng));
    const auto out1 = deliver(sealed(m1, kSeed), kCpuPort);
    const Key64 k_auth =
        eak.finish(std::get<EakPayload>(decode(out1.to_cpu.at(0)).value().payload));
    AdhkdInitiator adhkd(schedule);
    const Message m2 = make(HdrType::KeyExchange, kmp(KeyExchMsg::InitKeyExch), ctl_seq.next(),
                            {}, kControllerId, adhkd.start(ctl_rng));
    const auto out2 = deliver(sealed(m2, k_auth), kCpuPort);
    local_key = adhkd.finish(std::get<AdhkdPayload>(decode(out2.to_cpu.at(0)).value().payload));
    local_version = agent->keys().current_version(kCpuPort);

    // Port key on kPort toward kPeer: portKeyInit (seq 3), then the
    // peer's answer to the leg it starts, relayed as the controller would.
    const Message init = make(HdrType::KeyExchange, kmp(KeyExchMsg::PortKeyInit), ctl_seq.next(),
                              local_version, kControllerId, PortKeyPayload{kPort, kPeer});
    const auto out3 = deliver(sealed(init, local_key), kCpuPort);
    const Message leg1 = decode(out3.to_cpu.at(0)).value();
    const AdhkdResponse peer =
        adhkd_respond(schedule, std::get<AdhkdPayload>(leg1.payload), peer_rng);
    const Message leg2 =
        make(HdrType::KeyExchange, kmp(KeyExchMsg::InitKeyExch), leg1.header.seq_num,
             local_version, kPeer, peer.reply, kFlagResponse | kFlagPortScope);
    deliver(sealed(leg2, local_key), kCpuPort);
    ASSERT_EQ(agent->keys().current(kPort), peer.master);
    port_key = peer.master;
    ASSERT_EQ(agent->stats().digest_failures, 0u);
    ASSERT_EQ(agent->stats().replay_rejections, 0u);
  }

  dataplane::PipelineOutput deliver(Bytes payload, PortId ingress) {
    dataplane::Packet packet;
    packet.payload = std::move(payload);
    packet.ingress = ingress;
    dataplane::PipelineContext ctx(regs, rng, SimTime::from_ms(1), kSelf, &tele);
    return agent->process(packet, ctx);
  }

  Message register_write(std::uint16_t seq, std::uint64_t value) const {
    return make(HdrType::RegisterOp, static_cast<std::uint8_t>(RegisterMsg::WriteReq), seq,
                local_version, kControllerId, RegisterOpPayload{kUserReg, 3, value});
  }

  Message dp_data(std::uint16_t seq) const {
    return make(HdrType::DpData, 1, seq, agent->keys().current_version(kPort), kPeer,
                DpDataPayload{Bytes{0x50, 0x42}});
  }

  /// The first leg of a port-key update the peer starts over the link.
  Message port_update_leg(std::uint16_t seq) {
    AdhkdInitiator initiator(schedule);
    return make(HdrType::KeyExchange, kmp(KeyExchMsg::UpdKeyExch), seq,
                agent->keys().current_version(kPort), kPeer, initiator.start(peer_rng),
                kFlagPortScope);
  }

  /// The one alert in `out`, checked for `code`.
  static AlertPayload alert_of(const dataplane::PipelineOutput& out, AlertMsg code) {
    std::optional<Message> alert;
    for (const Bytes& frame : out.to_cpu) {
      const Message msg = decode(frame).value();
      if (msg.header.hdr_type != HdrType::Alert) continue;
      EXPECT_FALSE(alert.has_value()) << "more than one alert";
      alert = msg;
    }
    if (!alert.has_value()) {
      ADD_FAILURE() << "no alert";
      return {};
    }
    EXPECT_EQ(static_cast<AlertMsg>(alert->header.msg_type), code);
    return std::get<AlertPayload>(alert->payload);
  }

  /// The most recent trace record of `kind`.
  telemetry::TraceRecord last_record(TraceEventKind kind) const {
    const auto records = tele.trace.snapshot();
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      if (it->kind == kind) return *it;
    }
    ADD_FAILURE() << "no trace record of kind " << telemetry::trace_event_name(kind);
    return {};
  }

  void expect_counts(std::uint64_t digest_failures, std::uint64_t replay_rejections,
                     std::uint64_t feedback_rejected) const {
    EXPECT_EQ(agent->stats().digest_failures, digest_failures);
    EXPECT_EQ(agent->stats().replay_rejections, replay_rejections);
    EXPECT_EQ(agent->stats().feedback_rejected, feedback_rejected);
  }

  static void expect_alert(const AlertPayload& alert, std::uint32_t context,
                           std::uint16_t observed, std::uint16_t expected) {
    EXPECT_EQ(alert.context, context);
    EXPECT_EQ(alert.observed_seq, observed);
    EXPECT_EQ(alert.expected_seq, expected);
    EXPECT_EQ(alert.detail, 0u);
  }

  static void expect_record(const telemetry::TraceRecord& record, PortId port, std::uint64_t a,
                            std::uint64_t b) {
    EXPECT_EQ(record.node, kSelf);
    EXPECT_EQ(record.port, port);
    EXPECT_EQ(record.a, a);
    EXPECT_EQ(record.b, b);
  }

  dataplane::RegisterFile regs;
  Xoshiro256 rng{1};
  Xoshiro256 ctl_rng{2};
  Xoshiro256 peer_rng{3};
  KeySchedule schedule;
  SeqCounter ctl_seq;
  telemetry::Telemetry tele;
  std::unique_ptr<P4AuthAgent> agent;
  Key64 local_key = 0;
  KeyVersion local_version{};
  Key64 port_key = 0;
};

// --- C-DP register ops -------------------------------------------------------

TEST_F(AdmissionFixture, ForgedRegisterOpIsNackedAndAlerted) {
  const auto out = deliver(forged(register_write(4, 0xAA), local_key), kCpuPort);
  EXPECT_TRUE(out.dropped);
  expect_counts(1, 0, 0);
  ASSERT_EQ(out.to_cpu.size(), 2u);
  EXPECT_EQ(static_cast<RegisterMsg>(decode(out.to_cpu[0]).value().header.msg_type),
            RegisterMsg::NAck);
  // The register-op reply reports the C-DP window's top as expected.
  expect_alert(alert_of(out, AlertMsg::DigestMismatch), kUserReg.value, 4, 3);
  expect_record(last_record(TraceEventKind::VerifyFail), kCpuPort, 4,
                static_cast<std::uint64_t>(HdrType::RegisterOp));
  EXPECT_EQ(regs.by_name("user_reg")->read(3).value(), 0u);
}

TEST_F(AdmissionFixture, ReplayedRegisterOpIsAlerted) {
  const Bytes first = sealed(register_write(4, 0xAA), local_key);
  ASSERT_EQ(deliver(first, kCpuPort).to_cpu.size(), 1u);
  ASSERT_EQ(deliver(sealed(register_write(5, 0xBB), local_key), kCpuPort).to_cpu.size(), 1u);
  const auto out = deliver(first, kCpuPort);
  EXPECT_TRUE(out.dropped);
  expect_counts(0, 1, 0);
  ASSERT_EQ(out.to_cpu.size(), 1u);  // the alert only, no nAck
  expect_alert(alert_of(out, AlertMsg::ReplayDetected), kUserReg.value, 4, 5);
  expect_record(last_record(TraceEventKind::ReplayDrop), kCpuPort, 4, 5);
  EXPECT_EQ(regs.by_name("user_reg")->read(3).value(), 0xBBu);
}

// --- C-DP key exchange -------------------------------------------------------

TEST_F(AdmissionFixture, ForgedCdpKeyExchangeIsAlerted) {
  AdhkdInitiator update(schedule);
  const Message upd = make(HdrType::KeyExchange, kmp(KeyExchMsg::UpdKeyExch), 4, local_version,
                           kControllerId, update.start(ctl_rng));
  const auto installs = agent->stats().key_installs;
  const auto out = deliver(forged(upd, local_key), kCpuPort);
  EXPECT_TRUE(out.dropped);
  expect_counts(1, 0, 0);
  ASSERT_EQ(out.to_cpu.size(), 1u);
  expect_alert(alert_of(out, AlertMsg::DigestMismatch),
               static_cast<std::uint32_t>(KeyExchMsg::UpdKeyExch), 4, 0);
  expect_record(last_record(TraceEventKind::VerifyFail), kCpuPort, 4,
                static_cast<std::uint64_t>(HdrType::KeyExchange));
  EXPECT_EQ(agent->stats().key_installs, installs);
  EXPECT_EQ(agent->keys().current(kCpuPort), local_key);
}

TEST_F(AdmissionFixture, ReplayedCdpKeyExchangeRequestIsAlerted) {
  const Message init = make(HdrType::KeyExchange, kmp(KeyExchMsg::PortKeyInit), 4, local_version,
                            kControllerId, PortKeyPayload{PortId{2}, NodeId{10}});
  const Bytes frame = sealed(init, local_key);
  ASSERT_EQ(deliver(frame, kCpuPort).to_cpu.size(), 1u);  // the first ADHKD leg
  ASSERT_EQ(deliver(sealed(register_write(5, 1), local_key), kCpuPort).to_cpu.size(), 1u);
  const auto out = deliver(frame, kCpuPort);
  EXPECT_TRUE(out.dropped);
  expect_counts(0, 1, 0);
  ASSERT_EQ(out.to_cpu.size(), 1u);  // no second leg
  expect_alert(alert_of(out, AlertMsg::ReplayDetected),
               static_cast<std::uint32_t>(KeyExchMsg::PortKeyInit), 4, 5);
  expect_record(last_record(TraceEventKind::ReplayDrop), kCpuPort, 4, 5);
}

// --- DP-DP feedback (DpData) -------------------------------------------------

TEST_F(AdmissionFixture, ForgedDpDataIsRejectedAndAlerted) {
  const auto out = deliver(forged(dp_data(10), port_key), kPort);
  EXPECT_TRUE(out.dropped);
  expect_counts(1, 0, 1);
  ASSERT_EQ(out.to_cpu.size(), 1u);
  expect_alert(alert_of(out, AlertMsg::DigestMismatch), kPort.value, 10, 0);
  expect_record(last_record(TraceEventKind::VerifyFail), kPort, 10,
                static_cast<std::uint64_t>(HdrType::DpData));
  EXPECT_EQ(agent->stats().feedback_verified, 0u);
}

TEST_F(AdmissionFixture, ReplayedDpDataIsAlerted) {
  const Bytes first = sealed(dp_data(10), port_key);
  deliver(first, kPort);
  deliver(sealed(dp_data(11), port_key), kPort);
  ASSERT_EQ(agent->stats().feedback_verified, 2u);
  const auto out = deliver(first, kPort);
  EXPECT_TRUE(out.dropped);
  expect_counts(0, 1, 0);
  ASSERT_EQ(out.to_cpu.size(), 1u);
  expect_alert(alert_of(out, AlertMsg::ReplayDetected), kPort.value, 10, 11);
  expect_record(last_record(TraceEventKind::ReplayDrop), kPort, 10, 11);
  EXPECT_EQ(agent->stats().feedback_verified, 2u);
}

// --- DP-DP port-key update legs ----------------------------------------------

TEST_F(AdmissionFixture, ForgedPortKeyUpdateLegIsAlerted) {
  const auto installs = agent->stats().key_installs;
  const auto out = deliver(forged(port_update_leg(20), port_key), kPort);
  EXPECT_TRUE(out.dropped);
  EXPECT_TRUE(out.emits.empty());
  expect_counts(1, 0, 0);
  ASSERT_EQ(out.to_cpu.size(), 1u);
  expect_alert(alert_of(out, AlertMsg::DigestMismatch), kPort.value, 20, 0);
  expect_record(last_record(TraceEventKind::VerifyFail), kPort, 20,
                static_cast<std::uint64_t>(HdrType::KeyExchange));
  EXPECT_EQ(agent->stats().key_installs, installs);
  EXPECT_EQ(agent->keys().current(kPort), port_key);
}

TEST_F(AdmissionFixture, ReplayedPortKeyUpdateLegIsAlerted) {
  const Bytes leg = sealed(port_update_leg(20), port_key);
  const auto answered = deliver(leg, kPort);
  ASSERT_EQ(answered.emits.size(), 1u);  // the responder's leg, on the link
  const auto installs = agent->stats().key_installs;
  const Key64 rolled = agent->keys().current(kPort).value();
  ASSERT_NE(rolled, port_key);
  deliver(sealed(dp_data(21), rolled), kPort);
  ASSERT_EQ(agent->stats().feedback_verified, 1u);

  // The replayed leg still verifies under the retained previous key; the
  // port's replay window stops it.
  const auto out = deliver(leg, kPort);
  EXPECT_TRUE(out.dropped);
  EXPECT_TRUE(out.emits.empty());
  expect_counts(0, 1, 0);
  ASSERT_EQ(out.to_cpu.size(), 1u);
  expect_alert(alert_of(out, AlertMsg::ReplayDetected), kPort.value, 20, 21);
  expect_record(last_record(TraceEventKind::ReplayDrop), kPort, 20, 21);
  EXPECT_EQ(agent->stats().key_installs, installs);
  EXPECT_EQ(agent->keys().current(kPort), rolled);
}

}  // namespace
}  // namespace p4auth::core
