#include "netsim/switch.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <vector>

#include "test_helpers.hpp"

namespace p4auth::netsim {
namespace {

using testing::DropProgram;
using testing::ForwardProgram;
using testing::SinkNode;
using testing::ToCpuProgram;

struct Fixture {
  Simulator sim;
  Network net{sim};
  Switch* sw;
  SinkNode* sink;

  Fixture() {
    sw = net.add<Switch>(NodeId{1}, dataplane::TimingModel::tofino(), /*seed=*/7);
    sink = net.add<SinkNode>(NodeId{2});
    LinkConfig config;
    config.latency = SimTime::from_us(1);
    config.bandwidth_gbps = 0;
    net.connect(NodeId{1}, PortId{1}, NodeId{2}, PortId{1}, config);
  }
};

TEST(Switch, RunsProgramAndForwards) {
  Fixture f;
  f.sw->set_program(std::make_unique<ForwardProgram>(PortId{1}));
  f.net.inject(NodeId{1}, PortId{5}, Bytes{0xAB});
  f.sim.run();
  ASSERT_EQ(f.sink->frames.size(), 1u);
  EXPECT_EQ(f.sink->frames[0].second, Bytes{0xAB});
  EXPECT_EQ(f.sw->stats().frames_in, 1u);
  EXPECT_EQ(f.sw->stats().frames_out, 1u);
}

TEST(Switch, ProcessingDelayPrecedesEmission) {
  Fixture f;
  f.sw->set_program(std::make_unique<ForwardProgram>(PortId{1}));
  f.net.inject(NodeId{1}, PortId{5}, Bytes{1});
  f.sim.run();
  // tofino base (550ns) + 1 table (10ns) + link latency (1us)
  EXPECT_EQ(f.sim.now().ns(), 550u + 10u + 1000u);
}

TEST(Switch, NoProgramDrops) {
  Fixture f;
  f.net.inject(NodeId{1}, PortId{5}, Bytes{1});
  f.sim.run();
  EXPECT_TRUE(f.sink->frames.empty());
  EXPECT_EQ(f.sw->stats().drops, 1u);
}

TEST(Switch, DropProgramDrops) {
  Fixture f;
  f.sw->set_program(std::make_unique<DropProgram>());
  f.net.inject(NodeId{1}, PortId{5}, Bytes{1});
  f.sim.run();
  EXPECT_TRUE(f.sink->frames.empty());
  EXPECT_EQ(f.sw->stats().drops, 1u);
}

TEST(Switch, PacketOutReachesProgramOnCpuPort) {
  Fixture f;
  f.sw->set_program(std::make_unique<ForwardProgram>(PortId{1}));
  f.sim.after(SimTime::zero(), [&] { f.sw->handle_packet_out(Bytes{0xCD}); });
  f.sim.run();
  ASSERT_EQ(f.sink->frames.size(), 1u);
  EXPECT_EQ(f.sw->stats().packet_outs, 1u);
}

TEST(Switch, PacketInGoesToSink) {
  Fixture f;
  f.sw->set_program(std::make_unique<ToCpuProgram>());
  Bytes received;
  f.sw->set_packet_in_sink([&](Bytes b) { received = std::move(b); });
  f.net.inject(NodeId{1}, PortId{5}, Bytes{0x77});
  f.sim.run();
  EXPECT_EQ(received, Bytes{0x77});
  EXPECT_EQ(f.sw->stats().packet_ins, 1u);
}

TEST(Switch, PacketInWithoutSinkIsCounted) {
  Fixture f;
  f.sw->set_program(std::make_unique<ToCpuProgram>());
  f.net.inject(NodeId{1}, PortId{5}, Bytes{0x77});
  f.sim.run();
  EXPECT_EQ(f.sw->stats().packet_ins_lost, 1u);
}

TEST(Switch, OsInterposerTampersPacketOut) {
  // The LD_PRELOAD-analog seam: a compromised OS rewrites a PacketOut
  // before it reaches the data plane (§II-A).
  Fixture f;
  f.sw->set_program(std::make_unique<ForwardProgram>(PortId{1}));
  OsInterposer interposer;
  interposer.to_dataplane = [](Bytes& msg) {
    msg[0] = 0xFF;
    return TamperVerdict::Pass;
  };
  f.sw->set_os_interposer(std::move(interposer));
  f.sim.after(SimTime::zero(), [&] { f.sw->handle_packet_out(Bytes{0x01}); });
  f.sim.run();
  ASSERT_EQ(f.sink->frames.size(), 1u);
  EXPECT_EQ(f.sink->frames[0].second, Bytes{0xFF});
  EXPECT_EQ(f.sw->stats().os_tampered, 1u);
}

TEST(Switch, OsInterposerTampersPacketIn) {
  Fixture f;
  f.sw->set_program(std::make_unique<ToCpuProgram>());
  OsInterposer interposer;
  interposer.to_controller = [](Bytes& msg) {
    msg[0] = 0xEE;
    return TamperVerdict::Pass;
  };
  f.sw->set_os_interposer(std::move(interposer));
  Bytes received;
  f.sw->set_packet_in_sink([&](Bytes b) { received = std::move(b); });
  f.net.inject(NodeId{1}, PortId{5}, Bytes{0x01});
  f.sim.run();
  EXPECT_EQ(received, Bytes{0xEE});
}

TEST(Switch, OsInterposerCanDropBothDirections) {
  Fixture f;
  f.sw->set_program(std::make_unique<ToCpuProgram>());
  OsInterposer interposer;
  interposer.to_dataplane = [](Bytes&) { return TamperVerdict::Drop; };
  interposer.to_controller = [](Bytes&) { return TamperVerdict::Drop; };
  f.sw->set_os_interposer(std::move(interposer));
  bool got_packet_in = false;
  f.sw->set_packet_in_sink([&](Bytes) { got_packet_in = true; });
  f.sim.after(SimTime::zero(), [&] { f.sw->handle_packet_out(Bytes{1}); });
  f.net.inject(NodeId{1}, PortId{5}, Bytes{2});
  f.sim.run();
  EXPECT_FALSE(got_packet_in);
  EXPECT_EQ(f.sw->stats().os_dropped, 2u);
}

TEST(Switch, OsSeamRecordsEachDropAndRewriteWithItsDirection) {
  // A trace record per seam action: TamperRewrite carries the rewritten
  // size, TamperDrop the original size, and b the direction (1 toward the
  // data plane, 2 toward the controller). A hook that changes nothing
  // records nothing.
  Fixture f;
  telemetry::Telemetry telemetry;
  f.sw->set_telemetry(&telemetry);
  f.sw->set_program(std::make_unique<ToCpuProgram>());
  f.sw->set_packet_in_sink([](Bytes) {});
  const auto run = [&](std::function<TamperVerdict(Bytes&)> to_dataplane,
                       std::function<TamperVerdict(Bytes&)> to_controller) {
    f.sw->set_os_interposer(OsInterposer{std::move(to_dataplane), std::move(to_controller)});
    f.sim.after(SimTime::zero(), [&] { f.sw->handle_packet_out(Bytes{1, 2, 3}); });
    f.sim.run();
  };
  const auto drop = [](Bytes&) { return TamperVerdict::Drop; };
  const auto pass = [](Bytes&) { return TamperVerdict::Pass; };
  const auto grow = [](Bytes& msg) {
    msg.push_back(0xEE);
    return TamperVerdict::Pass;
  };
  run(grow, drop);  // PacketOut rewritten to 4 bytes; its PacketIn dropped
  run(drop, grow);  // PacketOut dropped
  run(pass, grow);  // PacketIn rewritten to 4 bytes
  run(pass, pass);  // untouched both ways

  std::vector<std::array<std::uint64_t, 3>> seam;  // kind, a, b
  for (const auto& r : telemetry.trace.snapshot()) {
    if (r.kind == telemetry::TraceEventKind::TamperDrop ||
        r.kind == telemetry::TraceEventKind::TamperRewrite) {
      EXPECT_EQ(r.node, NodeId{1});
      EXPECT_EQ(r.port, kCpuPort);
      seam.push_back({static_cast<std::uint64_t>(r.kind), r.a, r.b});
    }
  }
  const auto rewrite = static_cast<std::uint64_t>(telemetry::TraceEventKind::TamperRewrite);
  const auto dropped = static_cast<std::uint64_t>(telemetry::TraceEventKind::TamperDrop);
  EXPECT_EQ(seam, (std::vector<std::array<std::uint64_t, 3>>{
                      {rewrite, 4, 1}, {dropped, 4, 2}, {dropped, 3, 1}, {rewrite, 4, 2}}));
  EXPECT_EQ(f.sw->stats().os_tampered, 2u);
  EXPECT_EQ(f.sw->stats().os_dropped, 2u);
}

TEST(Switch, DataPacketsBypassOsInterposer) {
  // Crucial property: the OS seam only touches C-DP messages. DP-DP frames
  // on data ports never cross it.
  Fixture f;
  f.sw->set_program(std::make_unique<ForwardProgram>(PortId{1}));
  OsInterposer interposer;
  interposer.to_dataplane = [](Bytes& msg) {
    msg[0] = 0xFF;
    return TamperVerdict::Pass;
  };
  f.sw->set_os_interposer(std::move(interposer));
  f.net.inject(NodeId{1}, PortId{5}, Bytes{0x01});
  f.sim.run();
  ASSERT_EQ(f.sink->frames.size(), 1u);
  EXPECT_EQ(f.sink->frames[0].second, Bytes{0x01});
  EXPECT_EQ(f.sw->stats().os_tampered, 0u);
}

TEST(Switch, AccumulatesProcessingTime) {
  Fixture f;
  f.sw->set_program(std::make_unique<ForwardProgram>(PortId{1}));
  f.net.inject(NodeId{1}, PortId{5}, Bytes{1});
  f.net.inject(NodeId{1}, PortId{5}, Bytes{2}, SimTime::from_us(100));
  f.sim.run();
  EXPECT_EQ(f.sw->total_processing_time().ns(), 2u * (550u + 10u));
}

TEST(Switch, RegistersPersistAcrossPackets) {
  class CountingProgram : public dataplane::DataPlaneProgram {
   public:
    dataplane::PipelineOutput process(dataplane::Packet&,
                                      dataplane::PipelineContext& ctx) override {
      auto* reg = ctx.registers().by_name("cnt");
      if (reg == nullptr) reg = ctx.registers().create("cnt", RegisterId{1}, 1, 64).value();
      (void)reg->write(0, reg->read(0).value() + 1);
      ctx.costs().register_accesses += 2;
      return dataplane::PipelineOutput::drop();
    }
  };
  Fixture f;
  f.sw->set_program(std::make_unique<CountingProgram>());
  for (int i = 0; i < 5; ++i) f.net.inject(NodeId{1}, PortId{5}, Bytes{1});
  f.sim.run();
  EXPECT_EQ(f.sw->registers().by_name("cnt")->read(0).value(), 5u);
}

}  // namespace
}  // namespace p4auth::netsim
