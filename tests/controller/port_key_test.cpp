#include <gtest/gtest.h>

#include "core/auth.hpp"
#include "core/lldp.hpp"
#include "stack_helpers.hpp"

namespace p4auth::controller {
namespace {

using testing::kProbeMagic;
using testing::kUserReg;
using testing::Stack;
using testing::StackSwitch;

constexpr NodeId kA{1};
constexpr NodeId kB{2};
constexpr PortId kPortA{1};
constexpr PortId kPortB{1};

struct TwoSwitchFixture : ::testing::Test {
  Stack stack;
  StackSwitch* a;
  StackSwitch* b;
  netsim::Link* link;

  void SetUp() override {
    a = &stack.add_switch(kA);
    b = &stack.add_switch(kB);
    link = stack.connect(*a, kPortA, *b, kPortB);
    ASSERT_TRUE(stack.init_local_key_sync(kA).ok());
    ASSERT_TRUE(stack.init_local_key_sync(kB).ok());
  }

  Status init_port_key_sync() {
    std::optional<Status> result;
    stack.controller.init_port_key(kA, kPortA, kB, kPortB,
                                   [&](Status s) { result = std::move(s); });
    stack.sim.run();
    return result.has_value() ? std::move(*result) : Status(make_error("no callback"));
  }
};

TEST_F(TwoSwitchFixture, PortKeyInitEstablishesSharedKey) {
  ASSERT_TRUE(init_port_key_sync().ok());
  ASSERT_TRUE(a->agent->keys().has_key(kPortA));
  ASSERT_TRUE(b->agent->keys().has_key(kPortB));
  EXPECT_EQ(a->agent->keys().current(kPortA), b->agent->keys().current(kPortB));
}

TEST_F(TwoSwitchFixture, PortKeyOpsNamingAPortOutsideTheSwitchFailBeforeSending) {
  const auto local_a = a->agent->keys().current(kCpuPort);
  const auto sent = stack.controller.stats().kmp_messages_sent;
  const auto run = [&](auto start) {
    std::optional<Status> result;
    start([&](Status s) { result = std::move(s); });
    stack.sim.run();
    return result.has_value() ? std::move(*result) : Status(make_error("no callback"));
  };
  // Port 0 names the local key's slot; the stack's switches have 8 ports.
  ASSERT_FALSE(run([&](auto done) {
                 stack.controller.init_port_key(kA, PortId{0}, kB, kPortB, done);
               }).ok());
  ASSERT_FALSE(run([&](auto done) {
                 stack.controller.init_port_key(kA, PortId{40}, kB, kPortB, done);
               }).ok());
  EXPECT_FALSE(run([&](auto done) {
                 stack.controller.init_port_key(kA, kPortA, kB, PortId{9}, done);
               }).ok());
  EXPECT_FALSE(run([&](auto done) {
                 stack.controller.update_port_key(kA, PortId{0}, kB, done);
               }).ok());
  EXPECT_FALSE(run([&](auto done) {
                 stack.controller.update_port_key(kA, PortId{40}, kB, done);
               }).ok());
  EXPECT_EQ(stack.controller.stats().kmp_messages_sent, sent);
  EXPECT_EQ(a->agent->keys().current(kCpuPort), local_a);
  EXPECT_EQ(a->agent->stats().key_installs, 1u);

  std::optional<Result<std::uint64_t>> read;
  stack.controller.read_register(kA, kUserReg, 0,
                                 [&](Result<std::uint64_t> r) { read = std::move(r); });
  stack.sim.run();
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->ok());
}

TEST_F(TwoSwitchFixture, PortKeyInitUsesFiveKmpMessages) {
  const auto before_sent = stack.controller.stats().kmp_messages_sent;
  const auto before_recv = stack.controller.stats().kmp_messages_received;
  ASSERT_TRUE(init_port_key_sync().ok());
  // Table III row: portKeyInit + 4 redirected ADHKD legs = 5 messages
  // (controller sends 3: portKeyInit + 2 forwards; receives 2 legs).
  EXPECT_EQ(stack.controller.stats().kmp_messages_sent - before_sent, 3u);
  EXPECT_EQ(stack.controller.stats().kmp_messages_received - before_recv, 2u);
}

TEST_F(TwoSwitchFixture, PortKeyUpdateRunsBelowController) {
  ASSERT_TRUE(init_port_key_sync().ok());
  const Key64 old_key = a->agent->keys().current(kPortA).value();
  const auto installs_before = a->agent->stats().key_installs;

  std::optional<Status> delivered;
  stack.controller.update_port_key(kA, kPortA, kB, [&](Status s) { delivered = std::move(s); });
  stack.sim.run();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_TRUE(delivered->ok());

  // Both ends rolled to the same fresh key, with only ONE controller
  // message (the DP-DP legs ran directly over the link).
  EXPECT_EQ(a->agent->stats().key_installs, installs_before + 1);
  const Key64 new_a = a->agent->keys().current(kPortA).value();
  const Key64 new_b = b->agent->keys().current(kPortB).value();
  EXPECT_EQ(new_a, new_b);
  EXPECT_NE(new_a, old_key);
}

TEST_F(TwoSwitchFixture, TaggedProbeCrossesLinkAndVerifies) {
  ASSERT_TRUE(init_port_key_sync().ok());
  // b forwards probes out port kPortB (toward a).
  ASSERT_TRUE(b->sw->registers().by_name("probe_out")->write(0, kPortB.value).ok());

  // Inject a raw probe into b from a host port; b's agent wraps it with
  // the egress port key; a's agent verifies and hands it to the app.
  stack.net.inject(kB, PortId{5}, Bytes{kProbeMagic, 0x37});
  stack.sim.run();

  EXPECT_EQ(b->agent->stats().feedback_tagged, 1u);
  EXPECT_EQ(a->agent->stats().feedback_verified, 1u);
  EXPECT_EQ(a->sw->registers().by_name("probe_val")->read(0).value(), 0x37u);
}

TEST_F(TwoSwitchFixture, LinkMitmRewritingProbeIsBlocked) {
  // The HULA attack (Fig. 3): an on-link adversary rewrites probeUtil.
  ASSERT_TRUE(init_port_key_sync().ok());
  ASSERT_TRUE(b->sw->registers().by_name("probe_out")->write(0, kPortB.value).ok());

  link->set_tamper(kB, [](Bytes& frame) {
    // Rewrite the probe's util byte inside the DpData payload.
    if (!frame.empty() && frame[0] == 4) frame.back() = 0x01;
    return netsim::TamperVerdict::Pass;
  });

  stack.net.inject(kB, PortId{5}, Bytes{kProbeMagic, 0x63});  // real util = 0x63
  stack.sim.run();

  EXPECT_EQ(a->agent->stats().feedback_rejected, 1u);
  EXPECT_EQ(a->sw->registers().by_name("probe_val")->read(0).value(), 0u);  // not polluted
  bool alerted = false;
  for (const auto& alert : stack.controller.alerts()) {
    if (alert.sw == kA && alert.code == core::AlertMsg::DigestMismatch) alerted = true;
  }
  EXPECT_TRUE(alerted);
}

TEST_F(TwoSwitchFixture, LinkMitmInjectingRawProbeIsBlocked) {
  ASSERT_TRUE(init_port_key_sync().ok());
  // The adversary strips authentication and injects a bare probe.
  link->set_tamper(kB, [](Bytes& frame) {
    if (!frame.empty() && frame[0] == 4) {
      frame = Bytes{kProbeMagic, 0x01};  // replace with forged raw probe
    }
    return netsim::TamperVerdict::Pass;
  });
  ASSERT_TRUE(b->sw->registers().by_name("probe_out")->write(0, kPortB.value).ok());
  stack.net.inject(kB, PortId{5}, Bytes{kProbeMagic, 0x63});
  stack.sim.run();

  EXPECT_EQ(a->agent->stats().unauth_feedback_dropped, 1u);
  EXPECT_EQ(a->sw->registers().by_name("probe_val")->read(0).value(), 0u);
}

TEST_F(TwoSwitchFixture, WithoutPortKeyProbeLeavesRaw) {
  // No port key yet: the probe is emitted raw and the receiving agent
  // (enforcing) drops it — traffic on an unkeyed link is not trusted.
  ASSERT_TRUE(b->sw->registers().by_name("probe_out")->write(0, kPortB.value).ok());
  stack.net.inject(kB, PortId{5}, Bytes{kProbeMagic, 0x11});
  stack.sim.run();
  EXPECT_EQ(b->agent->stats().feedback_tagged, 0u);
  EXPECT_EQ(a->agent->stats().unauth_feedback_dropped, 1u);
}

TEST_F(TwoSwitchFixture, ProbesKeepVerifyingAcrossKeyRollover) {
  // Consistent key updates (§VI-C): traffic tagged with the old version
  // while the rollover is in flight must still verify.
  ASSERT_TRUE(init_port_key_sync().ok());
  ASSERT_TRUE(b->sw->registers().by_name("probe_out")->write(0, kPortB.value).ok());

  stack.net.inject(kB, PortId{5}, Bytes{kProbeMagic, 0x01});
  stack.sim.run();
  ASSERT_EQ(a->agent->stats().feedback_verified, 1u);

  std::optional<Status> updated;
  stack.controller.update_port_key(kB, kPortB, kA, [&](Status s) { updated = std::move(s); });
  stack.sim.run();
  ASSERT_TRUE(updated.has_value() && updated->ok());

  stack.net.inject(kB, PortId{5}, Bytes{kProbeMagic, 0x02});
  stack.sim.run();
  EXPECT_EQ(a->agent->stats().feedback_verified, 2u);
  EXPECT_EQ(a->agent->stats().feedback_rejected, 0u);
}

TEST(LldpAutoPortKeys, ForgedAnnouncementNamingPortZeroIsDropped) {
  Controller::Config config;
  config.auto_port_keys = true;
  Stack stack(config);
  StackSwitch& a = stack.add_switch(kA);
  StackSwitch& b = stack.add_switch(kB);
  stack.connect(a, kPortA, b, kPortB);
  ASSERT_TRUE(stack.init_local_key_sync(kA).ok());
  ASSERT_TRUE(stack.init_local_key_sync(kB).ok());
  const auto local_a = a.agent->keys().current(kCpuPort);

  // One forged announcement heard on b's port: "I am a, this is my port 0".
  stack.net.inject(kB, kPortB, core::encode_lldp(core::LldpAnnouncement{kA, PortId{0}}));
  stack.sim.run();

  EXPECT_TRUE(stack.controller.adjacencies().empty());
  EXPECT_EQ(stack.controller.stats().auto_port_inits, 0u);
  EXPECT_EQ(a.agent->keys().current(kCpuPort), local_a);
  std::optional<Result<std::uint64_t>> read;
  stack.controller.read_register(kA, kUserReg, 0,
                                 [&](Result<std::uint64_t> r) { read = std::move(r); });
  stack.sim.run();
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->ok());
}

}  // namespace
}  // namespace p4auth::controller
