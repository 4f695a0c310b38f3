// Conservative parallel discrete-event engine: one topology, many cores.
//
// The fabric's node set is partitioned into shards, each driven by its
// own Simulator (event heap, clock, buffer pool, telemetry bundle). The
// engine advances the whole system in lookahead windows:
//
//   1. barrier: flush every shard's outbox into the target heaps
//   2. t_min  = earliest pending event across all shards
//   3. window = [t_min, t_min + lookahead); every shard runs all its
//      events strictly below the horizon, in parallel on a WorkerPool
//   4. repeat until every heap and outbox is empty
//
// Lookahead is the minimum cross-shard delivery delay (link latency /
// control-channel base, computed by the Fabric at partition time), so a
// frame sent during a window can only land at or past the horizon —
// no shard can receive an event "in its past" and the barrier needs no
// null-message protocol beyond the window itself.
//
// Determinism: every event carries a (time, order) pair where order =
// (rank << 32 | per-rank counter) is allocated by the *sending* rank
// (see Simulator). Each rank's counter lives on exactly one shard, so
// the orders — and therefore each heap's fire sequence — are a pure
// function of the schedule, not the partition: metrics, traces, audit
// trails, and bench JSON are byte-identical for any shard count (pinned
// by tests/integration/shard_equivalence_test).
//
// This is the only engine. A one-shard engine — the default — simply
// drains its lone heap, which is what a standalone Simulator does too.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "netsim/shard_context.hpp"
#include "netsim/simulator.hpp"

namespace p4auth::runner {
class WorkerPool;
}  // namespace p4auth::runner

namespace p4auth::netsim {

class ShardedSimulator {
 public:
  /// `shard0` is the externally-owned simulator (the Fabric's public
  /// `sim`); shards 1..count-1 are created here and share shard0's root
  /// order counter. `workers` is the parallelism budget (>= 1, clamped to
  /// the shard count); the calling thread participates, so `workers` ==
  /// total concurrent shards.
  ShardedSimulator(Simulator& shard0, int count, int workers);
  ~ShardedSimulator();
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  int shards() const noexcept { return static_cast<int>(sims_.size()); }
  Simulator& shard(int k) noexcept { return *sims_[static_cast<std::size_t>(k)]; }
  const std::vector<Simulator*>& shard_sims() const noexcept { return sims_; }

  /// Minimum cross-shard delivery delay; must be > 0 before a multi-shard
  /// run(). The Fabric computes it from the partition's cut edges.
  void set_lookahead(SimTime lookahead) noexcept { lookahead_ = lookahead; }
  SimTime lookahead() const noexcept { return lookahead_; }

  /// Runs windows until every heap and outbox drains, then re-aligns
  /// all shard clocks to the global end time so quiescent harness code
  /// sees one consistent "now" regardless of shard count. Cross-shard
  /// events sent during a window (Simulator::send_after) wait in the
  /// sender's outbox, written only by the thread running that shard and
  /// flushed only by the coordinator at the barrier (the WorkerPool's
  /// dispatch mutex orders the two).
  void run();

  /// Total events processed across all shards.
  std::size_t processed() const noexcept;

 private:
  std::vector<std::unique_ptr<Simulator>> owned_;  ///< shards 1..
  std::vector<Simulator*> sims_;                   ///< [0] == shard0
  SimTime lookahead_{};
  std::unique_ptr<runner::WorkerPool> pool_;
};

}  // namespace p4auth::netsim
