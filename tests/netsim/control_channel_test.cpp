#include "netsim/control_channel.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "test_helpers.hpp"

namespace p4auth::netsim {
namespace {

using testing::ToCpuProgram;

struct Fixture {
  Simulator sim;
  Network net{sim};
  Switch* sw;

  Fixture() { sw = net.add<Switch>(NodeId{3}, dataplane::TimingModel::tofino(), 7); }
};

TEST(ControlChannel, PacketOutArrivesAfterModelDelay) {
  Fixture f;
  f.sw->set_program(std::make_unique<ToCpuProgram>());
  ChannelModel model;
  model.to_switch_base = SimTime::from_us(100);
  model.per_byte_ns = 0;
  ControlChannel channel(f.sim, *f.sw, model);

  SimTime arrival{};
  channel.set_controller_sink([&](NodeId, Bytes) { arrival = f.sim.now(); });
  f.sim.after(SimTime::zero(), [&] { channel.to_switch(Bytes{1, 2, 3}); });
  f.sim.run();
  EXPECT_EQ(f.sw->stats().packet_outs, 1u);
  // to_switch (100us) + pipeline (550ns) + to_controller (0)
  EXPECT_EQ(arrival.ns(), 100'000u + 550u);
}

TEST(ControlChannel, RoundTripCarriesSwitchId) {
  Fixture f;
  f.sw->set_program(std::make_unique<ToCpuProgram>());
  ControlChannel channel(f.sim, *f.sw, ChannelModel::packet_out());
  NodeId reported{};
  Bytes received;
  channel.set_controller_sink([&](NodeId id, Bytes b) {
    reported = id;
    received = std::move(b);
  });
  f.sim.after(SimTime::zero(), [&] { channel.to_switch(Bytes{0xAB}); });
  f.sim.run();
  EXPECT_EQ(reported, NodeId{3});
  EXPECT_EQ(received, Bytes{0xAB});
  EXPECT_EQ(channel.stats().to_switch, 1u);
  EXPECT_EQ(channel.stats().to_controller, 1u);
}

TEST(ControlChannel, PacketInsArriveInSendOrder) {
  // A large PacketIn followed closely by a small one: with a per-byte
  // cost the small one's own delay is far shorter, but the channel is an
  // in-order transport and must not let it overtake.
  Fixture f;
  f.sw->set_program(std::make_unique<ToCpuProgram>());
  ChannelModel model;
  model.to_switch_base = SimTime::from_us(10);
  model.to_controller_base = SimTime::from_us(10);
  model.per_byte_ns = 100.0;  // 1000 bytes: +100us each way
  ControlChannel channel(f.sim, *f.sw, model);

  std::vector<std::size_t> sizes;
  std::vector<SimTime> arrivals;
  channel.set_controller_sink([&](NodeId, Bytes b) {
    sizes.push_back(b.size());
    arrivals.push_back(f.sim.now());
  });
  // The large message reaches the switch at ~110us and its PacketIn is
  // due at ~220us; the small one reaches the switch at ~121us.
  f.sim.after(SimTime::zero(), [&] { channel.to_switch(Bytes(1000, 0xAA)); });
  f.sim.after(SimTime::from_us(111), [&] { channel.to_switch(Bytes{0xBB}); });
  f.sim.run();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 1000u);
  EXPECT_EQ(sizes[1], 1u);
  EXPECT_GE(arrivals[1], arrivals[0]);
}

TEST(ControlChannel, PerByteCostScalesDelay) {
  ChannelModel model;
  model.to_switch_base = SimTime::from_us(10);
  model.per_byte_ns = 100.0;
  EXPECT_EQ(model.to_switch_delay(0).ns(), 10'000u);
  EXPECT_EQ(model.to_switch_delay(50).ns(), 15'000u);
}

TEST(ControlChannel, P4RuntimeSlowerThanPacketOut) {
  // Fig 18/19 ordering: the gRPC stack costs more per message than raw
  // CPU-port frames, and its per-byte marshalling cost is far higher
  // (which is what makes P4Runtime writes slower than reads).
  const auto grpc = ChannelModel::p4runtime();
  const auto raw = ChannelModel::packet_out();
  EXPECT_GT(grpc.to_switch_delay(30).ns(), raw.to_switch_delay(30).ns());
  EXPECT_GT(grpc.per_byte_ns, raw.per_byte_ns);
}

TEST(ControlChannel, InterposerSeesChannelTraffic) {
  // End-to-end: a compromised OS tampers a PacketOut delivered via the
  // channel, and the tampered bytes are what the pipeline sees.
  Fixture f;
  f.sw->set_program(std::make_unique<ToCpuProgram>());
  OsInterposer interposer;
  interposer.to_dataplane = [](Bytes& msg) {
    msg[0] ^= 0xFF;
    return TamperVerdict::Pass;
  };
  f.sw->set_os_interposer(std::move(interposer));
  ControlChannel channel(f.sim, *f.sw, ChannelModel::packet_out());
  Bytes received;
  channel.set_controller_sink([&](NodeId, Bytes b) { received = std::move(b); });
  f.sim.after(SimTime::zero(), [&] { channel.to_switch(Bytes{0x0F}); });
  f.sim.run();
  EXPECT_EQ(received, Bytes{0xF0});
}


TEST(ControlChannel, JitterSpreadsDelaysAroundTheMean) {
  Fixture f;
  f.sw->set_program(std::make_unique<ToCpuProgram>());
  ChannelModel model;
  model.to_switch_base = SimTime::from_us(100);
  model.jitter_fraction = 0.2;
  ControlChannel channel(f.sim, *f.sw, model);
  std::vector<double> arrivals;
  channel.set_controller_sink([&](NodeId, Bytes) {});

  double sum = 0;
  double min_us = 1e9, max_us = 0;
  for (int i = 0; i < 200; ++i) {
    const SimTime start = f.sim.now();
    SimTime delivered{};
    // Measure the to-switch leg via the PacketOut count timing.
    f.sim.after(SimTime::zero(), [&] { channel.to_switch(Bytes{1}); });
    const auto outs_before = f.sw->stats().packet_outs;
    while (f.sw->stats().packet_outs == outs_before) {
      f.sim.run_until(f.sim.now() + SimTime::from_us(1));
    }
    delivered = f.sim.now();
    const double us = (delivered - start).us();
    sum += us;
    min_us = std::min(min_us, us);
    max_us = std::max(max_us, us);
  }
  const double mean = sum / 200.0;
  EXPECT_NEAR(mean, 100.0, 5.0);   // mean-preserving (within run-until granularity)
  EXPECT_LT(min_us, 95.0);         // jitter actually spreads delays
  EXPECT_GT(max_us, 105.0);
}
}  // namespace
}  // namespace p4auth::netsim
