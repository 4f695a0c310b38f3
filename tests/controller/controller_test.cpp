#include "controller/controller.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "stack_helpers.hpp"

namespace p4auth::controller {
namespace {

using testing::kUserReg;
using testing::Stack;
using testing::StackSwitch;

constexpr NodeId kSw{1};

TEST(ControllerKmp, LocalKeyInitAgreesWithDataPlane) {
  Stack stack;
  StackSwitch& sw = stack.add_switch(kSw);
  auto result = stack.init_local_key_sync(kSw);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(sw.agent->has_local_key());
  EXPECT_EQ(sw.agent->keys().current(kCpuPort), result.value());
  EXPECT_EQ(stack.controller.local_key(kSw), result.value());
}

TEST(ControllerKmp, LocalKeyInitTakesFourMessages) {
  Stack stack;
  stack.add_switch(kSw);
  ASSERT_TRUE(stack.init_local_key_sync(kSw).ok());
  // Table III row 1: 4 messages, 104 bytes (2 each way, 52 B each way).
  EXPECT_EQ(stack.controller.stats().kmp_messages_sent, 2u);
  EXPECT_EQ(stack.controller.stats().kmp_messages_received, 2u);
  EXPECT_EQ(stack.controller.stats().kmp_bytes_sent +
                stack.controller.stats().kmp_bytes_received,
            104u);
}

TEST(ControllerKmp, LocalKeyUpdateDerivesFreshKey) {
  Stack stack;
  StackSwitch& sw = stack.add_switch(kSw);
  auto first = stack.init_local_key_sync(kSw);
  ASSERT_TRUE(first.ok());

  std::optional<Result<Key64>> second;
  stack.controller.update_local_key(kSw, [&](Result<Key64> r) { second = std::move(r); });
  stack.sim.run();
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(second->ok());
  EXPECT_NE(second->value(), first.value());
  EXPECT_EQ(sw.agent->keys().current(kCpuPort), second->value());
  EXPECT_EQ(sw.agent->stats().key_installs, 2u);
}

TEST(ControllerKmp, UpdateWithoutInitFails) {
  Stack stack;
  stack.add_switch(kSw);
  std::optional<Result<Key64>> result;
  stack.controller.update_local_key(kSw, [&](Result<Key64> r) { result = std::move(r); });
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok());
}

TEST(ControllerRegisters, WriteThenReadRoundTrip) {
  Stack stack;
  stack.add_switch(kSw);
  ASSERT_TRUE(stack.init_local_key_sync(kSw).ok());

  std::optional<Result<std::uint64_t>> write_result;
  stack.controller.write_register(kSw, kUserReg, 3, 0xFEED,
                                  [&](Result<std::uint64_t> r) { write_result = std::move(r); });
  stack.sim.run();
  ASSERT_TRUE(write_result.has_value());
  ASSERT_TRUE(write_result->ok());

  std::optional<Result<std::uint64_t>> read_result;
  stack.controller.read_register(kSw, kUserReg, 3,
                                 [&](Result<std::uint64_t> r) { read_result = std::move(r); });
  stack.sim.run();
  ASSERT_TRUE(read_result.has_value());
  ASSERT_TRUE(read_result->ok());
  EXPECT_EQ(read_result->value(), 0xFEEDu);
}

TEST(ControllerRegisters, RequestCompletionTimeIsMilliseconds) {
  // Fig 18 sanity: RCT is on the order of a millisecond with the default
  // compose/channel constants.
  Stack stack;
  stack.add_switch(kSw);
  ASSERT_TRUE(stack.init_local_key_sync(kSw).ok());
  const SimTime start = stack.sim.now();
  std::optional<SimTime> end;
  stack.controller.read_register(kSw, kUserReg, 0,
                                 [&](Result<std::uint64_t>) { end = stack.sim.now(); });
  stack.sim.run();
  ASSERT_TRUE(end.has_value());
  const double rct_us = (*end - start).us();
  EXPECT_GT(rct_us, 800.0);
  EXPECT_LT(rct_us, 3000.0);
}

TEST(ControllerAttack, OsTamperingRequestIsDetectedByDataPlane) {
  // The paper's C-DP attack (Fig. 8): a compromised switch OS rewrites the
  // write value between gRPC agent and driver. The DP detects it, the
  // write never lands, and the controller gets a nAck + alert.
  Stack stack;
  StackSwitch& sw = stack.add_switch(kSw);
  ASSERT_TRUE(stack.init_local_key_sync(kSw).ok());

  netsim::OsInterposer interposer;
  interposer.to_dataplane = [](Bytes& frame) {
    if (frame.size() >= 30 && frame[0] == 1) frame[frame.size() - 1] ^= 0xFF;
    return netsim::TamperVerdict::Pass;
  };
  sw.sw->set_os_interposer(std::move(interposer));

  std::optional<Result<std::uint64_t>> result;
  stack.controller.write_register(kSw, kUserReg, 3, 42,
                                  [&](Result<std::uint64_t> r) { result = std::move(r); });
  stack.sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok());
  EXPECT_EQ(sw.sw->registers().by_name("user_reg")->read(3).value(), 0u);
  EXPECT_EQ(sw.agent->stats().digest_failures, 1u);
  ASSERT_FALSE(stack.controller.alerts().empty());
  EXPECT_EQ(stack.controller.alerts()[0].code, core::AlertMsg::DigestMismatch);
  EXPECT_TRUE(stack.controller.alerts()[0].authentic);
}

TEST(ControllerAttack, OsTamperingResponseIsDetectedByController) {
  // Fig. 9: the OS inflates a reported statistic in the read response; the
  // controller's digest check catches it and refuses to act.
  Stack stack;
  StackSwitch& sw = stack.add_switch(kSw);
  ASSERT_TRUE(stack.init_local_key_sync(kSw).ok());
  ASSERT_TRUE(sw.sw->registers().by_name("user_reg")->write(0, 100).ok());

  netsim::OsInterposer interposer;
  interposer.to_controller = [](Bytes& frame) {
    if (!frame.empty() && frame[0] == 1) frame[frame.size() - 1] ^= 0x7F;  // inflate value
    return netsim::TamperVerdict::Pass;
  };
  sw.sw->set_os_interposer(std::move(interposer));

  std::optional<Result<std::uint64_t>> result;
  stack.controller.read_register(kSw, kUserReg, 0,
                                 [&](Result<std::uint64_t> r) { result = std::move(r); });
  stack.sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok());
  EXPECT_EQ(stack.controller.stats().response_digest_failures, 1u);
}

TEST(ControllerAttack, WithoutP4AuthTamperingSucceeds) {
  // The flip side: DP-Reg-RW (auth disabled) happily accepts the tampered
  // write — this is the vulnerability P4Auth closes.
  Controller::Config config;
  config.p4auth_enabled = false;
  Stack stack(config);
  StackSwitch& sw = stack.add_switch(kSw, /*auth_enabled=*/false);

  netsim::OsInterposer interposer;
  interposer.to_dataplane = [](Bytes& frame) {
    if (!frame.empty() && frame[0] == 1) frame[frame.size() - 1] = 0x99;
    return netsim::TamperVerdict::Pass;
  };
  sw.sw->set_os_interposer(std::move(interposer));

  std::optional<Result<std::uint64_t>> result;
  stack.controller.write_register(kSw, kUserReg, 3, 42,
                                  [&](Result<std::uint64_t> r) { result = std::move(r); });
  stack.sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok());  // controller is none the wiser
  EXPECT_EQ(sw.sw->registers().by_name("user_reg")->read(3).value(), 0x99u);  // attacker's value
}

TEST(ControllerAttack, TamperedKeyExchangeFailsInit) {
  Stack stack;
  StackSwitch& sw = stack.add_switch(kSw);
  netsim::OsInterposer interposer;
  interposer.to_dataplane = [](Bytes& frame) {
    if (!frame.empty() && frame[0] == 2) frame.back() ^= 1;  // corrupt key exchange
    return netsim::TamperVerdict::Pass;
  };
  sw.sw->set_os_interposer(std::move(interposer));

  auto result = stack.init_local_key_sync(kSw);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(sw.agent->has_local_key());
  EXPECT_GE(sw.agent->stats().digest_failures, 1u);
}

TEST(ControllerDos, OutstandingLedgerBoundsInFlight) {
  Controller::Config config;
  config.max_outstanding = 4;
  Stack stack(config);
  stack.add_switch(kSw);
  ASSERT_TRUE(stack.init_local_key_sync(kSw).ok());

  int ok = 0, rejected = 0;
  for (int i = 0; i < 10; ++i) {
    stack.controller.read_register(kSw, kUserReg, 0, [&](Result<std::uint64_t> r) {
      if (r.ok()) ++ok;
    });
  }
  // Issued back-to-back without draining: only 4 fit the ledger.
  stack.sim.run();
  rejected = 10 - ok;
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(rejected, 6);
}

TEST(ControllerObservability, ReplayedRequestRaisesAlert) {
  Stack stack;
  StackSwitch& sw = stack.add_switch(kSw);
  ASSERT_TRUE(stack.init_local_key_sync(kSw).ok());

  // The OS records and replays: deliver every PacketOut twice.
  netsim::OsInterposer interposer;
  Bytes recorded;
  sw.sw->set_os_interposer(netsim::OsInterposer{});
  // Simulate replay by capturing the frame via tamper hook and re-sending.
  Bytes* replay_slot = new Bytes;  // owned by the lambda chain below
  netsim::OsInterposer rec;
  rec.to_dataplane = [replay_slot](Bytes& frame) {
    *replay_slot = frame;
    return netsim::TamperVerdict::Pass;
  };
  sw.sw->set_os_interposer(std::move(rec));

  std::optional<Result<std::uint64_t>> result;
  stack.controller.write_register(kSw, kUserReg, 1, 7,
                                  [&](Result<std::uint64_t> r) { result = std::move(r); });
  stack.sim.run();
  ASSERT_TRUE(result.has_value() && result->ok());

  // Now replay the recorded frame straight into the data plane.
  sw.sw->set_os_interposer(netsim::OsInterposer{});
  sw.sw->handle_packet_out(*replay_slot);
  stack.sim.run();
  EXPECT_EQ(sw.agent->stats().replay_rejections, 1u);
  bool saw_replay_alert = false;
  for (const auto& alert : stack.controller.alerts()) {
    if (alert.code == core::AlertMsg::ReplayDetected) saw_replay_alert = true;
  }
  EXPECT_TRUE(saw_replay_alert);
  delete replay_slot;
}

TEST(ControllerObservability, AlertHandlerFiresOnDetection) {
  Stack stack;
  StackSwitch& sw = stack.add_switch(kSw);
  ASSERT_TRUE(stack.init_local_key_sync(kSw).ok());

  std::vector<Controller::AlertRecord> seen;
  stack.controller.set_alert_handler(
      [&](const Controller::AlertRecord& record) { seen.push_back(record); });

  netsim::OsInterposer interposer;
  interposer.to_dataplane = [](Bytes& frame) {
    if (!frame.empty() && frame[0] == 1) frame.back() ^= 1;
    return netsim::TamperVerdict::Pass;
  };
  sw.sw->set_os_interposer(std::move(interposer));

  stack.controller.write_register(kSw, kUserReg, 0, 1, [](Result<std::uint64_t>) {});
  stack.sim.run();
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen[0].sw, kSw);
  EXPECT_EQ(seen[0].code, core::AlertMsg::DigestMismatch);
  EXPECT_TRUE(seen[0].authentic);
}

TEST(ControllerKmp, PortKeyInitRequiresLocalKeys) {
  Stack stack;
  stack.add_switch(NodeId{1});
  stack.add_switch(NodeId{2});
  std::optional<Status> result;
  stack.controller.init_port_key(NodeId{1}, PortId{1}, NodeId{2}, PortId{1},
                                 [&](Status s) { result = std::move(s); });
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok());
}

TEST(ControllerRegisters, SeqWrapCompletesTheFirstPendingOp) {
  // A request whose PacketOut is lost stays pending. 65536 sequence
  // numbers later the counter is back at its seq: the pending table keeps
  // the first entry, as the ledger does, so the new request's ack
  // completes the old op and the new callback never fires.
  Stack stack;
  StackSwitch& sw = stack.add_switch(kSw);
  ASSERT_TRUE(stack.init_local_key_sync(kSw).ok());
  bool drop_next = true;
  netsim::OsInterposer lossy;
  lossy.to_dataplane = [&drop_next](Bytes&) {
    return std::exchange(drop_next, false) ? netsim::TamperVerdict::Drop
                                           : netsim::TamperVerdict::Pass;
  };
  sw.sw->set_os_interposer(std::move(lossy));

  std::optional<Result<std::uint64_t>> lost;
  stack.controller.read_register(kSw, kUserReg, 0,
                                 [&](Result<std::uint64_t> r) { lost = std::move(r); });
  stack.sim.run();
  ASSERT_FALSE(lost.has_value());

  // A closed loop of 65535 completed reads brings the counter round.
  int remaining = 65535;
  int completed = 0;
  std::function<void()> next = [&] {
    if (remaining-- == 0) return;
    stack.controller.read_register(kSw, kUserReg, 0, [&](Result<std::uint64_t> r) {
      if (r.ok()) ++completed;
      next();
    });
  };
  next();
  stack.sim.run();
  ASSERT_EQ(completed, 65535);
  ASSERT_EQ(stack.controller.stale_requests(kSw, SimTime::zero()).size(), 1u);

  std::optional<Result<std::uint64_t>> reissued;
  stack.controller.read_register(kSw, kUserReg, 0,
                                 [&](Result<std::uint64_t> r) { reissued = std::move(r); });
  stack.sim.run();
  ASSERT_TRUE(lost.has_value());
  EXPECT_TRUE(lost->ok());
  EXPECT_FALSE(reissued.has_value());
  EXPECT_TRUE(stack.controller.stale_requests(kSw, SimTime::zero()).empty());
  EXPECT_EQ(stack.controller.stats().unmatched_responses, 0u);
}

TEST(ControllerKmp, CompletionIssuingAReadInsideABatchCompletes) {
  // Both switches answer a local-key update at the same instant, so the
  // two responses share one PacketIn batch. Each completion issues the
  // next read on its switch while the batch is still being dispatched.
  Stack stack;
  const NodeId s1{1}, s2{2};
  stack.add_switch(s1);
  stack.add_switch(s2);
  ASSERT_TRUE(stack.init_local_key_sync(s1).ok());
  ASSERT_TRUE(stack.init_local_key_sync(s2).ok());
  stack.controller.write_register(s1, kUserReg, 2, 0x11, [](Result<std::uint64_t>) {});
  stack.controller.write_register(s2, kUserReg, 2, 0x22, [](Result<std::uint64_t>) {});
  stack.sim.run();

  const std::uint64_t batches_before = stack.controller.stats().batched_verifies;
  std::optional<Result<std::uint64_t>> read1, read2;
  std::optional<bool> update1, update2;
  stack.controller.update_local_key(s1, [&](Result<Key64> r) {
    update1 = r.ok();
    stack.controller.read_register(s1, kUserReg, 2,
                                   [&](Result<std::uint64_t> v) { read1 = std::move(v); });
  });
  stack.controller.update_local_key(s2, [&](Result<Key64> r) {
    update2 = r.ok();
    stack.controller.read_register(s2, kUserReg, 2,
                                   [&](Result<std::uint64_t> v) { read2 = std::move(v); });
  });
  stack.sim.run();

  // One batch for the two update responses, one for the two acks.
  EXPECT_EQ(stack.controller.stats().batched_verifies, batches_before + 2);
  ASSERT_TRUE(update1.value_or(false));
  ASSERT_TRUE(update2.value_or(false));
  ASSERT_TRUE(read1.has_value() && read1->ok());
  ASSERT_TRUE(read2.has_value() && read2->ok());
  EXPECT_EQ(read1->value(), 0x11u);
  EXPECT_EQ(read2->value(), 0x22u);
}

TEST(ControllerKmp, KeyExchangeClosesTheBatchBeforeALaterFrameFromItsSwitch) {
  // A local-key update's response and an ack sealed under the key that
  // update installs reach the controller in one delivery instant. The
  // exchange must dispatch (and install the key) before the ack is
  // verified, or the ack's key version is still unknown.
  Stack stack;
  StackSwitch& sw = stack.add_switch(kSw);
  ASSERT_TRUE(stack.init_local_key_sync(kSw).ok());
  std::vector<Bytes> held;
  netsim::OsInterposer holder;
  holder.to_controller = [&held](Bytes& frame) {
    held.push_back(frame);
    return netsim::TamperVerdict::Drop;
  };
  sw.sw->set_os_interposer(std::move(holder));

  std::optional<Result<Key64>> update;
  stack.controller.update_local_key(kSw, [&](Result<Key64> r) { update = std::move(r); });
  stack.sim.run();  // the switch installed the new key; its reply is held
  std::optional<Result<std::uint64_t>> read;
  stack.controller.read_register(kSw, kUserReg, 0,
                                 [&](Result<std::uint64_t> r) { read = std::move(r); });
  stack.sim.run();  // the ack, sealed under the new key, is held too
  ASSERT_EQ(held.size(), 2u);
  ASSERT_FALSE(update.has_value());
  ASSERT_FALSE(read.has_value());

  // Same size, same instant, no jitter: one delivery group, exchange first.
  sw.sw->set_os_interposer({});
  for (Bytes& frame : held) sw.sw->inject_packet_in(std::move(frame));
  stack.sim.run();
  ASSERT_TRUE(update.has_value() && update->ok());
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->ok());
  EXPECT_EQ(stack.controller.stats().response_digest_failures, 0u);
}

}  // namespace
}  // namespace p4auth::controller
