#include "netsim/network.hpp"

#include <gtest/gtest.h>

#include "netsim/sharded.hpp"
#include "test_helpers.hpp"

namespace p4auth::netsim {
namespace {

using testing::SinkNode;

TEST(Network, DeliversOverLinkWithLatency) {
  Simulator sim;
  Network net(sim);
  auto* a = net.add<SinkNode>(NodeId{1});
  auto* b = net.add<SinkNode>(NodeId{2});
  (void)a;
  LinkConfig config;
  config.latency = SimTime::from_us(50);
  config.bandwidth_gbps = 0;  // disable serialization delay
  net.connect(NodeId{1}, PortId{1}, NodeId{2}, PortId{3}, config);

  sim.at(SimTime::from_us(10), [&] { net.transmit(NodeId{1}, PortId{1}, Bytes{0xAA}); });
  sim.run();

  ASSERT_EQ(b->frames.size(), 1u);
  EXPECT_EQ(b->frames[0].first, PortId{3});
  EXPECT_EQ(b->frames[0].second, Bytes{0xAA});
  EXPECT_EQ(sim.now(), SimTime::from_us(60));
}

TEST(Network, BidirectionalDelivery) {
  Simulator sim;
  Network net(sim);
  auto* a = net.add<SinkNode>(NodeId{1});
  auto* b = net.add<SinkNode>(NodeId{2});
  net.connect(NodeId{1}, PortId{1}, NodeId{2}, PortId{1});
  sim.after(SimTime::zero(), [&] {
    net.transmit(NodeId{1}, PortId{1}, Bytes{1});
    net.transmit(NodeId{2}, PortId{1}, Bytes{2});
  });
  sim.run();
  ASSERT_EQ(a->frames.size(), 1u);
  ASSERT_EQ(b->frames.size(), 1u);
  EXPECT_EQ(a->frames[0].second, Bytes{2});
  EXPECT_EQ(b->frames[0].second, Bytes{1});
}

TEST(Network, TransmitWithoutLinkDrops) {
  Simulator sim;
  Network net(sim);
  net.add<SinkNode>(NodeId{1});
  sim.after(SimTime::zero(), [&] { net.transmit(NodeId{1}, PortId{9}, Bytes{1}); });
  sim.run();
  EXPECT_EQ(net.merged_stats().frames_dropped_no_link, 1u);
  EXPECT_EQ(net.merged_stats().frames_delivered, 0u);
}

TEST(Network, TamperHookRewritesInFlight) {
  Simulator sim;
  Network net(sim);
  net.add<SinkNode>(NodeId{1});
  auto* b = net.add<SinkNode>(NodeId{2});
  Link* link = net.connect(NodeId{1}, PortId{1}, NodeId{2}, PortId{1});
  link->set_tamper(NodeId{1}, [](Bytes& payload) {
    payload[0] = 0xEE;
    return TamperVerdict::Pass;
  });
  sim.after(SimTime::zero(), [&] { net.transmit(NodeId{1}, PortId{1}, Bytes{0x11}); });
  sim.run();
  ASSERT_EQ(b->frames.size(), 1u);
  EXPECT_EQ(b->frames[0].second, Bytes{0xEE});
  EXPECT_EQ(net.merged_stats().frames_tampered, 1u);
}

TEST(Network, MergedStatsCountTamperOnShardOne) {
  Simulator sim;
  ShardedSimulator engine(sim, 2, 1);
  engine.set_lookahead(SimTime::from_us(10));
  Network net(sim);
  net.add<SinkNode>(NodeId{1});
  auto* b = net.add<SinkNode>(NodeId{2});
  LinkConfig config;
  config.latency = SimTime::from_us(10);
  Link* link = net.connect(NodeId{1}, PortId{1}, NodeId{2}, PortId{1}, config);
  link->set_tamper(NodeId{1}, [](Bytes& payload) {
    payload[0] = 0xEE;
    return TamperVerdict::Pass;
  });
  // Both ends live on shard 1, so shard 0 never counts the frame.
  net.configure_shards(engine.shard_sims(), {nullptr, nullptr}, {{NodeId{1}, 1}, {NodeId{2}, 1}});
  engine.shard(1).at(SimTime::from_us(5), [&] { net.transmit(NodeId{1}, PortId{1}, Bytes{0x11}); });
  engine.run();
  ASSERT_EQ(b->frames.size(), 1u);
  EXPECT_EQ(b->frames[0].second, Bytes{0xEE});
  EXPECT_EQ(net.merged_stats().frames_tampered, 1u);
  EXPECT_EQ(net.merged_stats().frames_delivered, 1u);
}

TEST(Network, TamperHookOnlyAffectsItsDirection) {
  Simulator sim;
  Network net(sim);
  auto* a = net.add<SinkNode>(NodeId{1});
  net.add<SinkNode>(NodeId{2});
  Link* link = net.connect(NodeId{1}, PortId{1}, NodeId{2}, PortId{1});
  link->set_tamper(NodeId{1}, [](Bytes& payload) {
    payload[0] = 0xEE;
    return TamperVerdict::Pass;
  });
  sim.after(SimTime::zero(), [&] { net.transmit(NodeId{2}, PortId{1}, Bytes{0x22}); });
  sim.run();
  ASSERT_EQ(a->frames.size(), 1u);
  EXPECT_EQ(a->frames[0].second, Bytes{0x22});  // reverse direction untouched
  EXPECT_EQ(net.merged_stats().frames_tampered, 0u);
}

TEST(Network, TamperHookCanDrop) {
  Simulator sim;
  Network net(sim);
  net.add<SinkNode>(NodeId{1});
  auto* b = net.add<SinkNode>(NodeId{2});
  Link* link = net.connect(NodeId{1}, PortId{1}, NodeId{2}, PortId{1});
  link->set_tamper(NodeId{1}, [](Bytes&) { return TamperVerdict::Drop; });
  sim.after(SimTime::zero(), [&] { net.transmit(NodeId{1}, PortId{1}, Bytes{0x11}); });
  sim.run();
  EXPECT_TRUE(b->frames.empty());
  EXPECT_EQ(net.merged_stats().frames_dropped_by_tamper, 1u);
}

TEST(Network, InjectDeliversDirectly) {
  Simulator sim;
  Network net(sim);
  auto* a = net.add<SinkNode>(NodeId{5});
  net.inject(NodeId{5}, PortId{7}, Bytes{9, 9}, SimTime::from_us(3));
  sim.run();
  ASSERT_EQ(a->frames.size(), 1u);
  EXPECT_EQ(a->frames[0].first, PortId{7});
  EXPECT_EQ(sim.now(), SimTime::from_us(3));
}

TEST(Network, SerializationDelayAddsToLatency) {
  Simulator sim;
  Network net(sim);
  net.add<SinkNode>(NodeId{1});
  auto* b = net.add<SinkNode>(NodeId{2});
  LinkConfig config;
  config.latency = SimTime::from_us(10);
  config.bandwidth_gbps = 1.0;  // 1250 bytes -> 10 us
  net.connect(NodeId{1}, PortId{1}, NodeId{2}, PortId{1}, config);
  sim.after(SimTime::zero(), [&] { net.transmit(NodeId{1}, PortId{1}, Bytes(1250, 0)); });
  sim.run();
  ASSERT_EQ(b->frames.size(), 1u);
  EXPECT_EQ(sim.now(), SimTime::from_us(20));
}


TEST(Network, EgressQueueingDelaysBackToBackFrames) {
  Simulator sim;
  Network net(sim);
  net.add<SinkNode>(NodeId{1});
  auto* b = net.add<SinkNode>(NodeId{2});
  LinkConfig config;
  config.latency = SimTime::from_us(10);
  config.bandwidth_gbps = 1.0;  // 1250 B -> 10 us serialization
  net.connect(NodeId{1}, PortId{1}, NodeId{2}, PortId{1}, config);

  // Two frames sent at the same instant share one transmitter: the second
  // waits a full serialization time.
  sim.after(SimTime::zero(), [&] {
    net.transmit(NodeId{1}, PortId{1}, Bytes(1250, 1));
    net.transmit(NodeId{1}, PortId{1}, Bytes(1250, 2));
  });
  sim.run();
  ASSERT_EQ(b->frames.size(), 2u);
  EXPECT_EQ(sim.now(), SimTime::from_us(30));  // 10 queue + 10 serialize + 10 latency
  EXPECT_EQ(net.merged_stats().frames_queued, 1u);
  EXPECT_EQ(net.merged_stats().total_queue_delay, SimTime::from_us(10));
}

TEST(Network, QueueDrainsWhenIdle) {
  Simulator sim;
  Network net(sim);
  net.add<SinkNode>(NodeId{1});
  net.add<SinkNode>(NodeId{2});
  LinkConfig config;
  config.latency = SimTime::from_us(10);
  config.bandwidth_gbps = 1.0;
  net.connect(NodeId{1}, PortId{1}, NodeId{2}, PortId{1}, config);
  sim.after(SimTime::zero(), [&] { net.transmit(NodeId{1}, PortId{1}, Bytes(1250, 1)); });
  sim.after(SimTime::from_us(100), [&] { net.transmit(NodeId{1}, PortId{1}, Bytes(1250, 2)); });
  sim.run();
  EXPECT_EQ(net.merged_stats().frames_queued, 0u);  // transmitter idle again
}

TEST(Network, DirectionsQueueIndependently) {
  Simulator sim;
  Network net(sim);
  net.add<SinkNode>(NodeId{1});
  net.add<SinkNode>(NodeId{2});
  LinkConfig config;
  config.bandwidth_gbps = 1.0;
  net.connect(NodeId{1}, PortId{1}, NodeId{2}, PortId{1}, config);
  sim.after(SimTime::zero(), [&] {
    net.transmit(NodeId{1}, PortId{1}, Bytes(1250, 1));
    net.transmit(NodeId{2}, PortId{1}, Bytes(1250, 2));  // reverse direction
  });
  sim.run();
  EXPECT_EQ(net.merged_stats().frames_queued, 0u);  // full duplex
}

TEST(NetworkDelivery, SameInstantFramesArriveInScheduleOrder) {
  Simulator sim;
  Network net(sim);
  auto* sink = net.add<SinkNode>(NodeId{1});
  for (int i = 0; i < 5; ++i) {
    net.inject(NodeId{1}, PortId{2}, Bytes{static_cast<std::uint8_t>(i)}, SimTime::from_us(10));
  }
  // One event at a time (run's cap counts every event fired so far):
  // each delivery hands its own frame over, in schedule order.
  for (std::size_t fired = 1; fired <= 5; ++fired) {
    sim.run(/*max_events=*/fired);
    ASSERT_EQ(sink->frames.size(), fired);
    EXPECT_EQ(sink->frames.back().second[0], fired - 1);
  }
  EXPECT_TRUE(sim.empty());
}

TEST(NetworkDelivery, DistinctFireTimesArriveAtTheirOwnEvents) {
  Simulator sim;
  Network net(sim);
  auto* sink = net.add<SinkNode>(NodeId{1});
  std::vector<std::size_t> seen_per_delivery;
  net.inject(NodeId{1}, PortId{2}, Bytes{1}, SimTime::from_us(10));
  net.inject(NodeId{1}, PortId{2}, Bytes{2}, SimTime::from_us(20));
  sim.at(SimTime::from_us(15), [&] { seen_per_delivery.push_back(sink->frames.size()); });
  sim.run();
  ASSERT_EQ(sink->frames.size(), 2u);
  EXPECT_EQ(sink->frames[0].second, Bytes{1});
  EXPECT_EQ(sink->frames[1].second, Bytes{2});
  // The first frame was handed over at its own delivery, not held back.
  EXPECT_EQ(seen_per_delivery, (std::vector<std::size_t>{1}));
}

TEST(NetworkDelivery, DistinctDestinationsArriveAtTheirOwnEvents) {
  Simulator sim;
  Network net(sim);
  auto* a = net.add<SinkNode>(NodeId{1});
  auto* b = net.add<SinkNode>(NodeId{2});
  net.inject(NodeId{1}, PortId{2}, Bytes{1}, SimTime::from_us(10));
  net.inject(NodeId{2}, PortId{2}, Bytes{2}, SimTime::from_us(10));
  sim.run(/*max_events=*/1);
  ASSERT_EQ(a->frames.size(), 1u);
  EXPECT_EQ(a->frames[0].second, Bytes{1});
  EXPECT_TRUE(b->frames.empty());
  sim.run();
  ASSERT_EQ(b->frames.size(), 1u);
  EXPECT_EQ(b->frames[0].second, Bytes{2});
}

TEST(Network, BoundedRunDeliversEveryFiredFrame) {
  Simulator sim;
  Network net(sim);
  auto* sink = net.add<SinkNode>(NodeId{1});
  for (int i = 0; i < 4; ++i) {
    net.inject(NodeId{1}, PortId{2}, Bytes{static_cast<std::uint8_t>(i)}, SimTime::from_us(10));
  }
  // Stopping the simulator after two delivery events leaves no frame
  // waiting on the network: both fired frames have arrived.
  sim.run(/*max_events=*/2);
  ASSERT_EQ(sink->frames.size(), 2u);
  EXPECT_EQ(sink->frames[0].second, Bytes{0});
  EXPECT_EQ(sink->frames[1].second, Bytes{1});
  sim.run();  // remaining two deliveries
  EXPECT_EQ(sink->frames.size(), 4u);
}

}  // namespace
}  // namespace p4auth::netsim
