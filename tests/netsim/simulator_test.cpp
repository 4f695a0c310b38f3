#include "netsim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <memory>
#include <random>
#include <utility>
#include <vector>

namespace p4auth::netsim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(SimTime::from_us(30), [&] { order.push_back(3); });
  sim.at(SimTime::from_us(10), [&] { order.push_back(1); });
  sim.at(SimTime::from_us(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::from_us(30));
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.at(SimTime::from_us(7), [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 10) sim.after(SimTime::from_us(1), chain);
  };
  sim.after(SimTime::from_us(1), chain);
  sim.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sim.now(), SimTime::from_us(10));
}

TEST(Simulator, AfterIsRelativeToNow) {
  Simulator sim;
  SimTime inner_fire{};
  sim.at(SimTime::from_us(100), [&] {
    sim.after(SimTime::from_us(50), [&] { inner_fire = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_fire, SimTime::from_us(150));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.at(SimTime::from_us(10), [&] { ++fired; });
  sim.at(SimTime::from_us(20), [&] { ++fired; });
  sim.at(SimTime::from_us(30), [&] { ++fired; });
  sim.run_until(SimTime::from_us(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime::from_us(20));
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.run_until(SimTime::from_ms(5));
  EXPECT_EQ(sim.now(), SimTime::from_ms(5));
}

TEST(Simulator, RunUntilFiresEventExactlyAtBoundary) {
  Simulator sim;
  bool fired = false;
  sim.at(SimTime::from_us(20), [&] { fired = true; });
  sim.run_until(SimTime::from_us(20));
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), SimTime::from_us(20));
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, RunUntilNeverRewindsClock) {
  Simulator sim;
  sim.run_until(SimTime::from_ms(10));
  ASSERT_EQ(sim.now(), SimTime::from_ms(10));
  // A later run_until with an earlier target must not move time backwards
  // (after() would otherwise schedule "into the past").
  sim.run_until(SimTime::from_ms(3));
  EXPECT_EQ(sim.now(), SimTime::from_ms(10));
  SimTime fire_at{};
  sim.after(SimTime::from_ms(1), [&] { fire_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fire_at, SimTime::from_ms(11));
}

TEST(Simulator, RunUntilLeavesLaterEventsQueued) {
  Simulator sim;
  int fired = 0;
  sim.at(SimTime::from_us(5), [&] { ++fired; });
  sim.at(SimTime::from_us(50), [&] { ++fired; });
  sim.run_until(SimTime::from_us(10));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.empty());
  EXPECT_EQ(sim.processed(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime::from_us(50));
}

TEST(Simulator, MaxEventsGuardResumesWhereItStopped) {
  Simulator sim;
  int fired = 0;
  std::function<void()> forever = [&] {
    ++fired;
    sim.after(SimTime::from_ns(1), forever);
  };
  sim.after(SimTime::from_ns(1), forever);
  sim.run(/*max_events=*/10);
  EXPECT_EQ(fired, 10);
  EXPECT_FALSE(sim.empty());
  // run() compares against the cumulative processed() counter, so a second
  // call with a higher budget continues from where the first stopped.
  sim.run(/*max_events=*/25);
  EXPECT_EQ(fired, 25);
}

TEST(Simulator, ProcessedCounts) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.at(SimTime::from_us(static_cast<std::uint64_t>(i)), [] {});
  sim.run();
  EXPECT_EQ(sim.processed(), 7u);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, AcceptsMoveOnlyHandlers) {
  // std::function required copyable callables; the event queue must not.
  Simulator sim;
  auto payload = std::make_unique<int>(17);
  int seen = 0;
  sim.after(SimTime::from_us(1), [payload = std::move(payload), &seen] { seen = *payload; });
  sim.run();
  EXPECT_EQ(seen, 17);
}

TEST(Simulator, MoveOnlyHandlersInterleaveWithTiesInOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    auto tag = std::make_unique<int>(i);
    sim.at(SimTime::from_us(5), [tag = std::move(tag), &order] { order.push_back(*tag); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulator, MaxEventsGuardStopsRunaway) {
  Simulator sim;
  std::function<void()> forever = [&] { sim.after(SimTime::from_ns(1), forever); };
  sim.after(SimTime::from_ns(1), forever);
  sim.run(/*max_events=*/1000);
  EXPECT_EQ(sim.processed(), 1000u);
}

TEST(Simulator, CoalesceContinuesAcrossSameTimeSameKeyRun) {
  Simulator sim;
  std::vector<bool> continues;
  const auto record = [&] { continues.push_back(sim.coalesce_continues()); };
  sim.at_keyed(SimTime::from_ns(10), 42, record);
  sim.at_keyed(SimTime::from_ns(10), 42, record);
  sim.at_keyed(SimTime::from_ns(10), 42, record);
  sim.run();
  // True while a same-time same-key event is still pending; false on the
  // last of the run.
  EXPECT_EQ(continues, (std::vector<bool>{true, true, false}));
}

TEST(Simulator, CoalesceStopsAtKeyOrTimeBoundary) {
  Simulator sim;
  std::vector<bool> continues;
  const auto record = [&] { continues.push_back(sim.coalesce_continues()); };
  sim.at_keyed(SimTime::from_ns(10), 42, record);  // next differs in key
  sim.at_keyed(SimTime::from_ns(10), 43, record);  // next differs in time
  sim.at_keyed(SimTime::from_ns(20), 43, record);  // queue empty after this
  sim.run();
  EXPECT_EQ(continues, (std::vector<bool>{false, false, false}));
}

TEST(Simulator, CoalesceCountsSameKeyEventsThatAreNotAdjacent) {
  Simulator sim;
  std::vector<bool> continues;
  const auto record = [&] { continues.push_back(sim.coalesce_continues()); };
  sim.at_keyed(SimTime::from_ns(10), 42, record);
  sim.at_keyed(SimTime::from_ns(10), 43, record);
  sim.at_keyed(SimTime::from_ns(10), 42, record);
  sim.run();
  // The first 42 sees the second one pending behind the 43; the 43 and
  // the last 42 have no same-time same-key event left.
  EXPECT_EQ(continues, (std::vector<bool>{true, false, false}));
}

/// Drives a simulator with a random schedule and checks every
/// coalesce_continues() answer against a brute-force count of the pending
/// events with the firing event's (time, key).
class CoalesceOracle {
 public:
  explicit CoalesceOracle(std::uint64_t seed) : rng_(seed) {}

  void schedule(SimTime t, std::uint64_t key) {
    ++pending_[{t.ns(), key}];
    auto fn = [this, t, key] { fire(t, key); };
    if (pick(3) == 0) {
      sim_.at_ordered(t, key, sim_.allocate_order(), std::move(fn));
    } else {
      sim_.at_keyed(t, key, std::move(fn));
    }
  }

  void run(int rounds) {
    for (int round = 0; round < rounds; ++round) {
      const int batch = 1 + static_cast<int>(pick(12));
      for (int i = 0; i < batch; ++i) schedule(sim_.now() + random_delay(), random_key());
      if (pick(8) == 0) {
        // More same-(time, key) events than the network's 64-frame burst cap.
        const SimTime t = sim_.now() + random_delay();
        const std::uint64_t key = 1 + pick(3);
        for (int i = 0; i < 70; ++i) schedule(t, key);
      }
      switch (pick(3)) {
        case 0:
          sim_.run_until(sim_.now() + SimTime::from_ns(pick(6)));
          break;
        case 1:
          sim_.run();
          sim_.sync_clock(sim_.now() + SimTime::from_ns(pick(3)));  // quiescent jump
          break;
        default:
          sim_.run(sim_.processed() + pick(20));
          break;
      }
      EXPECT_FALSE(sim_.coalesce_continues()) << "quiescent";
    }
    sim_.run();
  }

  int checks() const noexcept { return checks_; }
  int continued() const noexcept { return continued_; }

 private:
  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }
  std::uint64_t random_key() { return pick(4); }  // 0 = unkeyed
  SimTime random_delay() { return SimTime::from_ns(pick(4) == 0 ? 0 : pick(5)); }

  void fire(SimTime t, std::uint64_t key) {
    const int left = --pending_[{t.ns(), key}];
    const bool expected = key != 0 && left > 0;
    EXPECT_EQ(sim_.coalesce_continues(), expected) << "t=" << t.ns() << " key=" << key;
    ++checks_;
    if (expected) ++continued_;
    // Zero-delay and near-future pushes from inside the handler, under
    // the handler's own rank.
    if (spawned_ < 4000 && pick(3) == 0) {
      ++spawned_;
      schedule(sim_.now() + SimTime::from_ns(pick(2) == 0 ? 0 : pick(3)),
               pick(2) == 0 ? key : random_key());
    }
  }

  Simulator sim_;
  std::mt19937_64 rng_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, int> pending_;
  int spawned_ = 0;
  int checks_ = 0;
  int continued_ = 0;
};

TEST(Simulator, CoalesceMatchesBruteForceCountOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    CoalesceOracle oracle(seed);
    oracle.run(200);
    EXPECT_GT(oracle.checks(), 1000) << "seed " << seed;
    EXPECT_GT(oracle.continued(), 100) << "seed " << seed;
  }
}

TEST(Simulator, KeyZeroNeverCoalesces) {
  Simulator sim;
  std::vector<bool> continues;
  const auto record = [&] { continues.push_back(sim.coalesce_continues()); };
  sim.at(SimTime::from_ns(10), record);
  sim.at(SimTime::from_ns(10), record);
  sim.run();
  EXPECT_EQ(continues, (std::vector<bool>{false, false}));
}

TEST(Simulator, KeysDoNotChangeFireOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at_keyed(SimTime::from_ns(10), 7, [&] { order.push_back(1); });
  sim.at(SimTime::from_ns(10), [&] { order.push_back(2); });
  sim.at_keyed(SimTime::from_ns(10), 7, [&] { order.push_back(3); });
  sim.at_keyed(SimTime::from_ns(5), 9, [&] { order.push_back(0); });
  sim.run();
  // Strictly (time, insertion seq), keys ignored for ordering.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

/// Drives a simulator with a random schedule and checks every pop against
/// a brute-force reference: a sorted set of the pending (time, order)
/// pairs. Pushes come from the harness and from inside handlers, under
/// random ranks, at now() and at delays from 0 ns to ~18 minutes, so
/// every radix bucket and every refill depth is exercised; the harness
/// also jumps the clock (run_until past every event, sync_clock) and
/// stops mid-schedule (bounded run), then schedules between now() and
/// the earliest pending event.
class PopOrderOracle {
 public:
  explicit PopOrderOracle(std::uint64_t seed) : rng_(seed) {}

  void run(int rounds) {
    for (int round = 0; round < rounds; ++round) {
      const int batch = 1 + static_cast<int>(pick(16));
      for (int i = 0; i < batch; ++i) schedule(sim_.now() + random_delay());
      switch (pick(4)) {
        case 0:
          sim_.run_until(sim_.now() + random_delay());
          break;
        case 1:
          sim_.run();
          sim_.sync_clock(sim_.now() + random_delay());
          break;
        case 2: {
          // Jump the clock toward, but not onto, the earliest pending event.
          bool ok = false;
          const SimTime next = sim_.next_event_time(ok);
          if (ok && next > sim_.now()) {
            sim_.run_until(sim_.now() + SimTime::from_ns(pick((next - sim_.now()).ns())));
          }
          break;
        }
        default:
          sim_.run(sim_.processed() + pick(40));
          break;
      }
      check_peek();
    }
    sim_.run();
    EXPECT_TRUE(pending_.empty());
  }

  int fired() const noexcept { return fired_; }

 private:
  std::uint64_t pick(std::uint64_t n) { return n == 0 ? 0 : rng_() % n; }
  /// 0 ns a quarter of the time; otherwise up to 2^(0..40) ns.
  SimTime random_delay() {
    if (pick(4) == 0) return SimTime{};
    return SimTime::from_ns(pick(std::uint64_t{2} << pick(41)));
  }

  void schedule(SimTime t) {
    // A random rank, so orders at one time do not arrive sorted.
    sim_.set_context(static_cast<std::uint32_t>(pick(5)));
    const std::uint64_t order = sim_.allocate_order();
    ASSERT_TRUE(pending_.emplace(t.ns(), order).second);
    sim_.at_ordered(t, 0, order, [this, t, order] { fire(t, order); });
  }

  void fire(SimTime t, std::uint64_t order) {
    ASSERT_FALSE(pending_.empty());
    EXPECT_EQ(*pending_.begin(), std::make_pair(t.ns(), order)) << "pop " << fired_;
    EXPECT_EQ(sim_.now(), t);
    pending_.erase(std::make_pair(t.ns(), order));
    ++fired_;
    if (spawned_ < 20000 && pick(2) == 0) {
      const int n = 1 + static_cast<int>(pick(3));
      for (int i = 0; i < n; ++i, ++spawned_) {
        schedule(pick(2) == 0 ? sim_.now() : sim_.now() + random_delay());
      }
    }
  }

  void check_peek() {
    bool ok = false;
    const SimTime next = sim_.next_event_time(ok);
    EXPECT_EQ(ok, !pending_.empty());
    if (ok) {
      EXPECT_EQ(next.ns(), pending_.begin()->first);
    }
    EXPECT_EQ(sim_.queue_depth(), pending_.size());
  }

  Simulator sim_;
  std::mt19937_64 rng_;
  std::set<std::pair<std::uint64_t, std::uint64_t>> pending_;
  int spawned_ = 0;
  int fired_ = 0;
};

TEST(Simulator, PopOrderMatchesBruteForceReferenceOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    PopOrderOracle oracle(seed);
    oracle.run(300);
    EXPECT_GT(oracle.fired(), 2000) << "seed " << seed;
  }
}

TEST(Simulator, PushAfterAClockJumpFiresBeforeEarlierPendingEvents) {
  Simulator sim;
  std::vector<int> fired;
  const auto log = [&](int id) { return [&fired, id] { fired.push_back(id); }; };
  // The last pop is at 100 ns; 1024 and 1500 share no high bit with it.
  sim.at(SimTime::from_ns(100), log(0));
  sim.at(SimTime::from_ns(1024), log(6));
  sim.at(SimTime::from_ns(1500), log(7));
  sim.run_until(SimTime::from_ns(100));
  ASSERT_EQ(fired, (std::vector<int>{0}));

  // Jump to 1000 without a pop, then land events between now and 1024.
  sim.run_until(SimTime::from_ns(1000));
  sim.at(SimTime::from_ns(1023), log(5));
  sim.at(SimTime::from_ns(1000), log(1));
  sim.at(SimTime::from_ns(1001), log(2));
  bool ok = false;
  EXPECT_EQ(sim.next_event_time(ok), SimTime::from_ns(1000));
  EXPECT_TRUE(ok);
  sim.run_until(SimTime::from_ns(1001));
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));

  // A quiescent-style jump, then pushes between it and the next event.
  sim.sync_clock(SimTime::from_ns(1010));
  sim.after(SimTime::from_ns(4), log(4));  // 1014
  sim.at(SimTime::from_ns(1010), log(3));
  EXPECT_EQ(sim.next_event_time(ok), SimTime::from_ns(1010));
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(sim.now(), SimTime::from_ns(1500));
}

TEST(Simulator, NextEventTimeLeavesThePopOrderUnchanged) {
  // Two simulators get the same random schedule; one is peeked before
  // every pop, the other never. Both must fire the same sequence, and the
  // peek must name the time of the event that fires next.
  Simulator peeked;
  Simulator plain;
  std::vector<std::pair<std::uint64_t, int>> seq_peeked;
  std::vector<std::pair<std::uint64_t, int>> seq_plain;
  std::mt19937_64 rng(23);
  for (int id = 0; id < 3000; ++id) {
    const SimTime t = SimTime::from_ns(rng() % (std::uint64_t{1} << (rng() % 30)));
    peeked.at(t, [&, id] { seq_peeked.emplace_back(peeked.now().ns(), id); });
    plain.at(t, [&, id] { seq_plain.emplace_back(plain.now().ns(), id); });
  }
  while (!peeked.empty()) {
    bool ok = false;
    const SimTime next = peeked.next_event_time(ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(peeked.next_event_time(ok), next) << "a peek moved the queue";
    peeked.run(peeked.processed() + 1);
    EXPECT_EQ(peeked.now(), next);
  }
  plain.run();
  EXPECT_EQ(seq_peeked, seq_plain);
  EXPECT_TRUE(std::is_sorted(seq_plain.begin(), seq_plain.end(),
                             [](const auto& a, const auto& b) { return a.first < b.first; }));
}

TEST(Simulator, RunWindowStopsBelowTheHorizonAndOutboxedEventsFireInOrder) {
  // Two shards of one engine. Shard A's handlers send to shard B inside a
  // window; the sends wait in A's outbox until the flush and then fire on
  // B in (time, order) among B's own events, whatever the push order.
  Simulator a;
  Simulator b;
  b.share_root_counter(a);
  std::vector<std::pair<std::uint64_t, char>> on_b;
  const auto log_b = [&](char tag) {
    return [&on_b, &b, tag] { on_b.emplace_back(b.now().ns(), tag); };
  };

  const SimTime horizon = SimTime::from_ns(100);
  b.at(SimTime::from_ns(150), log_b('y'));  // root order 0
  b.at(SimTime::from_ns(100), log_b('x'));  // at the horizon: waits for the next window
  a.set_context(Simulator::rank_of(NodeId{3}));
  a.at(SimTime::from_ns(40), [&] {
    a.send_after(b, SimTime::from_ns(110), 0, log_b('c'));  // 150, after 'y' (rank 5 > root)
    a.send_after(b, SimTime::from_ns(60), 0, log_b('a'));   // 100, after 'x'
  });
  a.at(SimTime::from_ns(99), [&] {
    a.send_after(b, SimTime::from_ns(1), 0, log_b('b'));  // 100, after 'a'
  });
  a.at(SimTime::from_ns(100), [] {});  // at the horizon: stays pending

  a.run_window(horizon);
  b.run_window(horizon);
  EXPECT_EQ(a.now(), SimTime::from_ns(99));
  EXPECT_TRUE(on_b.empty());
  EXPECT_EQ(b.queue_depth(), 2u);
  bool ok = false;
  EXPECT_EQ(a.next_event_time(ok), horizon);

  a.flush_outbox();
  EXPECT_EQ(b.queue_depth(), 5u);
  EXPECT_EQ(b.next_event_time(ok), horizon);
  b.run_window(SimTime::from_ns(151));
  using Fired = std::vector<std::pair<std::uint64_t, char>>;
  EXPECT_EQ(on_b, (Fired{{100, 'x'}, {100, 'a'}, {100, 'b'}, {150, 'y'}, {150, 'c'}}));
  EXPECT_TRUE(b.empty());
}

/// A callable that counts its own moves, and on its call records how many
/// it has seen.
struct MoveCounted {
  std::vector<int>* moves;
  std::vector<int>* moves_at_call;
  std::size_t id;

  MoveCounted(std::vector<int>* m, std::vector<int>* at_call, std::size_t i) noexcept
      : moves(m), moves_at_call(at_call), id(i) {}
  MoveCounted(MoveCounted&& other) noexcept
      : moves(other.moves), moves_at_call(other.moves_at_call), id(other.id) {
    ++(*moves)[id];
  }
  void operator()() { (*moves_at_call)[id] = (*moves)[id]; }
};

TEST(Simulator, PendingHandlersMoveAtMostTwiceFromScheduleToCall) {
  constexpr std::size_t kPending = 2048;
  Simulator sim;
  std::mt19937_64 rng(17);
  const auto random_time = [&] { return sim.now() + SimTime::from_ns(1 + rng() % 1'000'000); };

  // A first round grows the closure storage to the queue depth this test
  // reaches (growing relocates what is stored, as any vector does); from
  // then on a closure's only moves are into its slot and out of it.
  for (std::size_t i = 0; i < kPending; ++i) sim.at(random_time(), [] {});
  sim.run();

  std::vector<int> moves(kPending, 0);
  std::vector<int> moves_at_call(kPending, -1);
  for (std::size_t i = 0; i < kPending; ++i) {
    Simulator::Handler handler(MoveCounted(&moves, &moves_at_call, i));
    ASSERT_FALSE(handler.heap_allocated());
    moves[i] = 0;  // count from the at() call on
    sim.at(random_time(), std::move(handler));
  }
  ASSERT_EQ(sim.queue_depth(), kPending);
  sim.run();

  for (std::size_t i = 0; i < kPending; ++i) {
    ASSERT_GE(moves_at_call[i], 0) << "handler " << i << " never ran";
    EXPECT_LE(moves_at_call[i], 2) << "handler " << i;
  }
}

}  // namespace
}  // namespace p4auth::netsim
