#include "apps/routescout/routescout.hpp"

#include <gtest/gtest.h>

#include <optional>

namespace p4auth::apps::routescout {
namespace {

class RouteScoutTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RouteScoutProgram::Config config;
    config.path_ports = {PortId{1}, PortId{2}};
    program_ = std::make_unique<RouteScoutProgram>(config, regs_);
  }

  dataplane::PipelineOutput deliver(Bytes payload) {
    dataplane::Packet packet;
    packet.payload = std::move(payload);
    packet.ingress = PortId{9};
    dataplane::PipelineContext ctx(regs_, rng_, SimTime::from_us(1), NodeId{1});
    return program_->process(packet, ctx);
  }

  dataplane::RegisterFile regs_;
  std::unique_ptr<RouteScoutProgram> program_;
  Xoshiro256 rng_{5};
};

TEST_F(RouteScoutTest, CodecsRoundTrip) {
  const RsData data{123, 456};
  auto d = decode_data(encode_data(data));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().flow_id, 123u);
  EXPECT_EQ(d.value().size_bytes, 456u);

  const RsSample sample{1, 20000};
  auto s = decode_sample(encode_sample(sample));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().path, 1);
  EXPECT_EQ(s.value().latency_us, 20000u);

  EXPECT_FALSE(decode_data(Bytes{kDataMagic}).ok());
  EXPECT_FALSE(decode_sample(Bytes{0x00, 1, 2, 3, 4, 5}).ok());
}

TEST_F(RouteScoutTest, StartsWithEqualSplit) {
  EXPECT_EQ(regs_.by_name("rs_split")->read(0).value(), 50u);
  EXPECT_EQ(regs_.by_name("rs_split")->read(1).value(), 50u);
}

TEST_F(RouteScoutTest, SplitRatioGovernsPathChoice) {
  // 100/0 split: everything on path 0.
  ASSERT_TRUE(regs_.by_name("rs_split")->write(0, 100).ok());
  ASSERT_TRUE(regs_.by_name("rs_split")->write(1, 0).ok());
  for (std::uint64_t flow = 0; flow < 50; ++flow) {
    auto out = deliver(encode_data(RsData{flow, 100}));
    ASSERT_EQ(out.emits.size(), 1u);
    EXPECT_EQ(out.emits[0].port, PortId{1});
  }
  EXPECT_EQ(program_->stats().path_bytes[0], 5000u);
  EXPECT_EQ(program_->stats().path_bytes[1], 0u);
}

TEST_F(RouteScoutTest, SplitIsApproximatelyProportional) {
  ASSERT_TRUE(regs_.by_name("rs_split")->write(0, 30).ok());
  ASSERT_TRUE(regs_.by_name("rs_split")->write(1, 70).ok());
  int on_path0 = 0;
  constexpr int kFlows = 2000;
  for (std::uint64_t flow = 0; flow < kFlows; ++flow) {
    auto out = deliver(encode_data(RsData{flow, 100}));
    if (out.emits.at(0).port == PortId{1}) ++on_path0;
  }
  EXPECT_NEAR(static_cast<double>(on_path0) / kFlows, 0.30, 0.04);
}

TEST_F(RouteScoutTest, SameFlowAlwaysSamePath) {
  int flips = 0;
  std::optional<PortId> first;
  for (int i = 0; i < 20; ++i) {
    auto out = deliver(encode_data(RsData{777, 100}));
    if (!first.has_value()) first = out.emits.at(0).port;
    if (out.emits.at(0).port != *first) ++flips;
  }
  EXPECT_EQ(flips, 0);
}

TEST_F(RouteScoutTest, SamplesAccumulateIntoRegisters) {
  deliver(encode_sample(RsSample{0, 100}));
  deliver(encode_sample(RsSample{0, 200}));
  deliver(encode_sample(RsSample{1, 999}));
  EXPECT_EQ(regs_.by_name("rs_lat_sum")->read(0).value(), 300u);
  EXPECT_EQ(regs_.by_name("rs_lat_cnt")->read(0).value(), 2u);
  EXPECT_EQ(regs_.by_name("rs_lat_sum")->read(1).value(), 999u);
  EXPECT_EQ(program_->stats().samples_recorded, 3u);
}

TEST_F(RouteScoutTest, OutOfRangePathSampleDropped) {
  auto out = deliver(encode_sample(RsSample{9, 100}));
  EXPECT_TRUE(out.dropped);
  EXPECT_EQ(program_->stats().samples_recorded, 0u);
}

TEST_F(RouteScoutTest, UnknownMagicDropped) {
  auto out = deliver(Bytes{0x7E, 1, 2});
  EXPECT_TRUE(out.dropped);
}

TEST(RouteScoutManagerTest, EpochWithoutPathsFails) {
  // An epoch over zero paths has nothing to split; it must fail at once
  // rather than push a split it cannot index.
  netsim::Simulator sim;
  controller::Controller controller(sim, controller::Controller::Config{});
  RouteScoutManager manager(controller, NodeId{1}, /*num_paths=*/0);
  std::optional<Status> result;
  manager.run_epoch([&](Status s) { result = std::move(s); });
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok());
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(controller.stats().requests_sent, 0u);
  EXPECT_EQ(manager.stats().epochs_completed, 0u);
}

}  // namespace
}  // namespace p4auth::apps::routescout
