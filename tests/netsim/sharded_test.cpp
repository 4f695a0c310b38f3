// ShardedSimulator mechanics: lookahead windows, cross-shard outboxes,
// clock re-alignment, processed counts. The end-to-end determinism
// contract (byte-identical output for any shard count) is pinned by
// tests/integration/shard_equivalence_test.cpp; this file exercises the
// engine in isolation.
#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <vector>

#include "netsim/sharded.hpp"
#include "netsim/simulator.hpp"

namespace p4auth::netsim {
namespace {

constexpr SimTime us(std::uint64_t n) { return SimTime::from_us(n); }

struct Log {
  std::mutex mu;
  std::vector<std::string> entries;
  void add(const std::string& entry) {
    std::lock_guard<std::mutex> lock(mu);
    entries.push_back(entry);
  }
};

TEST(ShardedSimulator, RunsQuiescentEventsOnBothShards) {
  Simulator sim0;
  ShardedSimulator engine(sim0, 2, 1);
  engine.set_lookahead(us(10));
  ASSERT_EQ(engine.shards(), 2);

  Log log;
  engine.shard(0).at(us(5), [&] { log.add("s0@5"); });
  engine.shard(1).at(us(7), [&] { log.add("s1@7"); });
  engine.shard(1).at(us(25), [&] { log.add("s1@25"); });
  engine.run();

  // Events below one horizon run in parallel across shards, so only the
  // set per window is deterministic — sort within this window's pair.
  ASSERT_EQ(log.entries.size(), 3u);
  EXPECT_EQ(log.entries[2], "s1@25");
  EXPECT_EQ(engine.processed(), 3u);
}

TEST(ShardedSimulator, CrossShardMailboxDeliversAtOrPastHorizon) {
  Simulator sim0;
  ShardedSimulator engine(sim0, 2, 1);
  engine.set_lookahead(us(10));

  Log log;
  engine.shard(0).at(us(5), [&] {
    log.add("send@" + std::to_string(sim0.now().ns() / 1000));
    // A cross-shard frame: the order is allocated by the sending rank on
    // the sending shard, the closure re-establishes its context on entry.
    sim0.set_context(Simulator::rank_of(NodeId{1}));
    Simulator& dst = engine.shard(1);
    sim0.send_after(dst, us(10), 0, [&log, &dst] {
      dst.set_context(Simulator::rank_of(NodeId{1}));
      log.add("recv@" + std::to_string(dst.now().ns() / 1000));
    });
  });
  engine.run();

  ASSERT_EQ(log.entries.size(), 2u);
  EXPECT_EQ(log.entries[0], "send@5");
  EXPECT_EQ(log.entries[1], "recv@15");
  EXPECT_EQ(engine.processed(), 2u);
}

TEST(ShardedSimulator, ClocksRealignAtQuiescence) {
  Simulator sim0;
  ShardedSimulator engine(sim0, 3, 1);
  engine.set_lookahead(us(10));

  engine.shard(0).at(us(5), [] {});
  engine.shard(2).at(us(40), [] {});  // shard 1 never fires an event
  engine.run();

  // Every shard — busy or idle — reads the same final "now", so harness
  // code scheduling after() from quiescence agrees across shard counts.
  EXPECT_EQ(engine.shard(0).now(), us(40));
  EXPECT_EQ(engine.shard(1).now(), us(40));
  EXPECT_EQ(engine.shard(2).now(), us(40));
}

TEST(ShardedSimulator, SameTimeEventsOnOneShardFireInOrder) {
  Simulator sim0;
  ShardedSimulator engine(sim0, 2, 1);
  engine.set_lookahead(us(10));

  Log log;
  // Quiescent root allocations: program order is the tie-break.
  engine.shard(1).at(us(3), [&] { log.add("first"); });
  engine.shard(1).at(us(3), [&] { log.add("second"); });
  engine.shard(1).at(us(3), [&] { log.add("third"); });
  engine.run();

  ASSERT_EQ(log.entries.size(), 3u);
  EXPECT_EQ(log.entries[0], "first");
  EXPECT_EQ(log.entries[1], "second");
  EXPECT_EQ(log.entries[2], "third");
}

TEST(ShardedSimulator, ParallelWorkersDrainManyWindows) {
  Simulator sim0;
  ShardedSimulator engine(sim0, 4, 4);
  engine.set_lookahead(us(10));

  // A relay ring: each shard k forwards a token to shard (k+1) % 4 one
  // lookahead later, 32 hops total, all through the outbox path.
  std::vector<int> hops_seen(1, 0);
  std::mutex mu;
  struct Relay {
    ShardedSimulator* engine;
    std::vector<int>* hops;
    std::mutex* mu;
    void fire(int hop, int shard) const {
      {
        std::lock_guard<std::mutex> lock(*mu);
        ++(*hops)[0];
      }
      if (hop >= 32) return;
      Simulator& sim = engine->shard(shard);
      sim.set_context(Simulator::rank_of(NodeId{static_cast<std::uint16_t>(shard + 1)}));
      const int next = (shard + 1) % 4;
      const Relay relay = *this;
      sim.send_after(engine->shard(next), SimTime::from_us(10), 0,
                     [relay, hop, next] { relay.fire(hop + 1, next); });
    }
  };
  Relay relay{&engine, &hops_seen, &mu};
  engine.shard(0).at(us(1), [&] { relay.fire(1, 0); });
  engine.run();

  EXPECT_EQ(hops_seen[0], 32);
  EXPECT_EQ(engine.processed(), 32u);
}

}  // namespace
}  // namespace p4auth::netsim
