// Deterministic discrete-event simulator.
//
// Events fire in (time, order) order, so every run with the same seeds is
// bit-for-bit reproducible — a requirement for the attack/defence
// experiments where we compare three scenarios.
//
// `order` is (rank << 32 | per-rank counter), where a rank is a
// topology-derived scheduling context (rank 0 = harness/root, rank 1 =
// controller, rank node.value+2 = a switch). Because each rank lives
// wholly on one shard, the counter sequence a rank produces is
// independent of how the topology is partitioned — the property that
// makes sharded runs byte-identical for any shard count (see
// docs/DESIGN.md "Sharded simulation"). A standalone Simulator is simply
// a one-shard engine: the same ordering, the same coalescing.
//
// The queue is a monotone radix bucket queue. Every push has
// t >= now() >= the last refill time `base_` (schedules clamp to now(),
// and the clock only moves forward outside a pop), which is the radix
// heap's precondition. Bucket 0 (`current_`) holds the pending events at
// base_, sorted so the smallest order fires first; bucket b >= 1 holds
// the events whose time first differs from base_ at bit b-1 (its highest
// differing bit), so every event in bucket b fires before any in bucket
// b+1. A 64-bit mask names the non-empty buckets and each keeps its
// minimum time: a peek is O(1) and changes nothing. When bucket 0 runs
// dry, the lowest non-empty bucket's minimum becomes the new base_ and
// that bucket's events move down, each to a strictly lower bucket, so an
// event moves at most 64 times (in the benchmark workloads, one to four).
//
// Each pending event is one 32-byte Entry {time, order, key, next} in
// `entries_`, beside its closure in `slab_` at the same slot; buckets
// 1..64 are singly linked lists through `next`. A closure is a move-only
// InplaceHandler (inline up to 64 bytes), moved once into its slot when
// scheduled and once out when it fires. Freed slots go on a free list
// that is reserved to the slab's capacity whenever the slab grows, and
// bucket 0 keeps its capacity, so once the slab has reached the run's
// high-water depth (and bucket 0 its largest same-time group) the
// schedule/fire cycle performs no heap allocations.
//
// coalesce_continues() reads bucket 0 directly: while a handler runs,
// bucket 0 is exactly the set of other events pending at now().
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/types.hpp"
#include "netsim/inplace_handler.hpp"

namespace p4auth::telemetry {
struct Telemetry;
class Histogram;
}  // namespace p4auth::telemetry

namespace p4auth::netsim {

class Simulator {
 public:
  using Handler = InplaceHandler;

  Simulator() = default;
  // Shards share the root counter and telemetry bundles hold a pointer to
  // the firing order, so a simulator never moves.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `t`. Precondition: t >= now().
  void at(SimTime t, Handler&& fn) { at_keyed(t, 0, std::move(fn)); }
  /// Schedules `fn` `delay` after now().
  void after(SimTime delay, Handler&& fn) { at(now_ + delay, std::move(fn)); }

  /// Schedules `fn` at `t` under a coalescing key (0 = none). Events
  /// sharing a fire time and a nonzero key form a burst: while one of
  /// them is running, coalesce_continues() reports whether more of the
  /// burst is still pending. Keys affect nothing else — fire order stays
  /// strictly (time, order).
  void at_keyed(SimTime t, std::uint64_t key, Handler&& fn);
  void after_keyed(SimTime delay, std::uint64_t key, Handler&& fn) {
    at_keyed(now_ + delay, key, std::move(fn));
  }

  /// True iff called from an event handler whose event carries a nonzero
  /// key and another pending event fires at the same time with the same
  /// key, wherever it sits in the queue. The controller uses this to
  /// decide whether its PacketIn batch keeps growing or must flush now —
  /// purely a membership test on the current-time bucket; the queue order
  /// is untouched, so batch grouping is a deterministic function of the
  /// schedule.
  bool coalesce_continues() const noexcept {
    if (firing_key_ == 0) return false;
    // Next to fire sits at the back: a burst's next member is found first.
    for (auto it = current_.rbegin(); it != current_.rend(); ++it) {
      if (entries_[*it].key == firing_key_) return true;
    }
    return false;
  }

  /// Runs until the queue drains (or max_events fires as a runaway guard).
  void run(std::size_t max_events = 100'000'000);
  /// Runs all events with time <= t (inclusive — an event exactly at t
  /// fires), then advances the clock to t even if no events fired. The
  /// clock never moves backwards: run_until(t) with t < now() is a no-op.
  void run_until(SimTime t);

  std::size_t processed() const noexcept { return processed_; }
  bool empty() const noexcept { return size_ == 0; }

  // --- Rank ordering & sharded execution -----------------------------------

  static constexpr std::uint32_t kRootRank = 0;        ///< harness / quiescent
  static constexpr std::uint32_t kControllerRank = 1;  ///< controller context
  /// Scheduling rank of a switch node (each node is one rank).
  static std::uint32_t rank_of(NodeId node) noexcept {
    return static_cast<std::uint32_t>(node.value) + 2u;
  }

  /// Makes this simulator allocate rank-0 (harness) orders from `owner`'s
  /// counter: every shard of one engine shares shard 0's. Root
  /// allocations only ever happen on the coordinator or on shard 0's
  /// worker (never concurrently), so the counter needs no synchronisation.
  void share_root_counter(Simulator& owner) noexcept { root_counter_ = owner.root_counter_; }

  /// Overrides the scheduling context. Entry-point closures (frame
  /// delivery, channel legs) call this first thing so every order they
  /// allocate is attributed to the rank that owns their shard.
  void set_context(std::uint32_t rank) noexcept { current_rank_ = rank; }
  std::uint32_t context() const noexcept { return current_rank_; }

  /// Allocates the next (rank-invariant) order for the current context.
  std::uint64_t allocate_order() {
    if (current_rank_ == kRootRank) return (*root_counter_)++;
    if (current_rank_ >= rank_counters_.size()) rank_counters_.resize(current_rank_ + 1, 0);
    return (static_cast<std::uint64_t>(current_rank_) << 32) |
           static_cast<std::uint64_t>(rank_counters_[current_rank_]++);
  }

  /// Pushes an event whose order was already allocated. Does not observe
  /// scheduling lag.
  void at_ordered(SimTime t, std::uint64_t key, std::uint64_t order, Handler&& fn);

  /// Schedules `fn` `delay` from now on `dst` (this simulator or another
  /// shard of the same engine): observes the lag and allocates the order
  /// here, under the sending rank. Inside a window a cross-shard event
  /// waits in this simulator's outbox until the engine's next barrier —
  /// legal because the lookahead puts it at or past the horizon.
  void send_after(Simulator& dst, SimTime delay, std::uint64_t key, Handler&& fn);

  /// Moves every outboxed event onto its destination queue. Called by the
  /// engine's coordinator at a barrier, when no window is running.
  void flush_outbox();

  /// Fire time of the earliest pending event; `ok` false when empty.
  SimTime next_event_time(bool& ok) const noexcept {
    SimTime t{};
    ok = peek(t);
    return t;
  }

  /// Runs every event with time strictly below `horizon` (the conservative
  /// lookahead window), leaving the clock at the last fired event.
  void run_window(SimTime horizon);

  /// Forces the clock forward (never backwards) — the engine uses this to
  /// re-align all shard clocks at quiescence so harness code scheduling
  /// `after()` sees the same "now" regardless of shard count.
  void sync_clock(SimTime t) noexcept {
    if (t > now_) now_ = t;
  }

  /// Order of the event currently firing (0 when quiescent). The bound
  /// telemetry bundle stamps it onto records and mixes it into span ids.
  const std::uint64_t* firing_order_ptr() const noexcept { return &firing_order_; }

  // --- Self-observability --------------------------------------------------

  /// Current and high-water event-queue depth (scheduled, not yet fired).
  std::size_t queue_depth() const noexcept { return size_; }
  std::size_t max_queue_depth() const noexcept { return max_queue_depth_; }
  std::uint64_t events_scheduled() const noexcept { return scheduled_; }

  /// Attaches a telemetry bundle (null = off): every schedule observes
  /// its lag (fire time minus now) into sim.sched_lag_ns, and the
  /// bundle's order cursor is bound to this simulator's firing order.
  /// The lag distribution is a function of simulation state only, so it
  /// is deterministic and safe for byte-identical snapshots.
  void set_telemetry(telemetry::Telemetry* telemetry) noexcept;

  /// Writes queue/processing totals into the registry (sim.* series).
  /// Call once per run, before the bundle is stamped/serialised. The
  /// high-water depth is left out: it depends on how events split across
  /// shard queues, so it would break byte-equivalence across --shards.
  void export_stats();

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// One pending event; its closure waits in slab_ at the same slot.
  struct Entry {
    SimTime time;
    std::uint64_t order;
    std::uint64_t key;   ///< coalescing key (0 = never coalesces)
    std::uint32_t next;  ///< next slot in the same bucket (buckets 1..64)
  };
  static_assert(sizeof(Entry) == 32 && std::is_trivially_copyable_v<Entry>);
  /// A cross-shard send held until the barrier, closure beside its entry.
  struct Outgoing {
    Simulator* dst;
    SimTime time;
    std::uint64_t order;
    std::uint64_t key;
    Handler fn;
  };

  void push_event(SimTime t, std::uint64_t key, std::uint64_t order, Handler&& fn);
  /// Parks `fn` in a free slab slot (growing the slab and entries_ only
  /// when none is free) and returns the slot.
  std::uint32_t park(Handler&& fn);
  void observe_lag_value(SimTime lag);
  /// Links `slot` (time > base_) into the bucket of its highest bit that
  /// differs from base_.
  void link(std::uint32_t slot) noexcept;
  /// Bucket 0 is empty: makes the lowest non-empty bucket's minimum the
  /// new base_ and moves that bucket's events down.
  void refill();
  /// Time of the earliest pending event; false when none is pending.
  bool peek(SimTime& t) const noexcept {
    if (!current_.empty()) {
      t = base_;
      return true;
    }
    if (mask_ == 0) return false;
    t = bucket_min_[static_cast<std::size_t>(std::countr_zero(mask_))];
    return true;
  }

  /// Pops the earliest event, advances the clock and runs the handler.
  void fire_next();

  SimTime now_{};
  std::uint64_t scheduled_ = 0;   ///< total pushes
  std::uint64_t firing_key_ = 0;  ///< key of the event currently running
  std::uint64_t firing_order_ = 0;
  std::size_t processed_ = 0;
  std::vector<Entry> entries_;             ///< pending events, by slot
  std::vector<Handler> slab_;              ///< closures of pending events, by slot
  std::vector<std::uint32_t> free_slots_;  ///< capacity >= slab_.capacity()
  std::size_t size_ = 0;                   ///< pending events
  /// Bucket 0: slots pending at base_, by descending order (next at back).
  std::vector<std::uint32_t> current_;
  SimTime base_{};  ///< time of the last refill; every pending event is >= it
  /// Bucket b (1..64) lives at index b-1: list head, minimum time, and
  /// bit b-1 of mask_ set iff it is non-empty (heads are stale otherwise).
  std::array<std::uint32_t, 64> bucket_head_{};
  std::array<SimTime, 64> bucket_min_{};
  std::uint64_t mask_ = 0;
  std::size_t max_queue_depth_ = 0;

  std::uint64_t own_root_counter_ = 0;
  std::uint64_t* root_counter_ = &own_root_counter_;
  std::uint32_t current_rank_ = kRootRank;
  std::vector<std::uint32_t> rank_counters_;

  std::vector<Outgoing> outbox_;  ///< cross-shard sends of the running window
  bool in_window_ = false;
  SimTime horizon_{};  ///< exclusive bound of the running window

  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::Histogram* sched_lag_ns_ = nullptr;  ///< cached series (stable ref)
};

}  // namespace p4auth::netsim
