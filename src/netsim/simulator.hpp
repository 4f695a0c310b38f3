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
// The binary heap (std::vector + std::push_heap) orders 32-byte,
// trivially copyable entries {time, order, key, slot}; the closures stay
// put. Each closure is a move-only InplaceHandler (inline up to 64 bytes)
// parked in a slab, `slot` names its place there, and freed slots go on a
// free list for reuse. A closure is moved once into its slot when it is
// scheduled and once out when it fires, however far it travels through
// the heap. The free list never holds more indices than the slab has
// slots, and it is reserved to the slab's capacity whenever the slab
// grows, so once the slab has reached the run's high-water depth the
// schedule/fire cycle performs no heap allocations.
#pragma once

#include <algorithm>
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
  /// key, wherever it sits in the heap. The network uses this to decide
  /// whether a staged delivery burst keeps growing or must flush now —
  /// purely a count; the heap order is untouched, so burst grouping is a
  /// deterministic function of the schedule.
  bool coalesce_continues() {
    if (firing_key_ == 0) return false;
    if (step_stale_) count_step();
    for (const StepKey& k : step_keys_) {
      if (k.key == firing_key_) return true;
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
  bool empty() const noexcept { return heap_.empty(); }

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

  /// Moves every outboxed event onto its destination heap. Called by the
  /// engine's coordinator at a barrier, when no window is running.
  void flush_outbox();

  /// Fire time of the earliest pending event; `ok` false when empty.
  SimTime next_event_time(bool& ok) const noexcept {
    ok = !heap_.empty();
    return ok ? heap_.front().time : SimTime{};
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
  std::size_t queue_depth() const noexcept { return heap_.size(); }
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
  /// shard heaps, so it would break byte-equivalence across --shards.
  void export_stats();

 private:
  /// One pending event as the heap sees it; its closure waits in slab_.
  struct Entry {
    SimTime time;
    std::uint64_t order;
    std::uint64_t key;   ///< coalescing key (0 = never coalesces)
    std::uint32_t slot;  ///< index of the closure in slab_
  };
  static_assert(sizeof(Entry) == 32 && std::is_trivially_copyable_v<Entry>);
  /// Heap predicate: std::push_heap builds a max-heap, so "later fires
  /// lower" puts the earliest (time, order) at the front. (time, order)
  /// pairs are unique, which makes the fire order total and deterministic.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.order > b.order;
    }
  };
  /// Pending events at the step time that carry `key` (n > 0 always).
  struct StepKey {
    std::uint64_t key;
    std::uint32_t n;
  };
  /// A cross-shard send held until the barrier, closure beside its entry.
  struct Outgoing {
    Simulator* dst;
    SimTime time;
    std::uint64_t order;
    std::uint64_t key;
    Handler fn;
  };

  void push_event(SimTime t, std::uint64_t key, std::uint64_t order, Handler&& fn);
  /// Parks `fn` in a free slab slot (growing the slab only when none is
  /// free) and returns the slot.
  std::uint32_t park(Handler&& fn);
  void observe_lag_value(SimTime lag);
  void step_add(std::uint64_t key);
  void step_remove(std::uint64_t key) noexcept;
  /// Counts step_keys_ from the pending events at step_time_.
  void count_step();
  /// Adds heap node `i` (at step_time_) and its descendants at step_time_.
  void count_subtree(std::size_t i);

  /// Pops the earliest event, advances the clock and runs the handler.
  void fire_next();

  SimTime now_{};
  std::uint64_t scheduled_ = 0;   ///< total pushes
  std::uint64_t firing_key_ = 0;  ///< key of the event currently running
  std::uint64_t firing_order_ = 0;
  std::size_t processed_ = 0;
  std::vector<Entry> heap_;
  std::vector<Handler> slab_;              ///< closures of pending events, by slot
  std::vector<std::uint32_t> free_slots_;  ///< capacity >= slab_.capacity()
  std::size_t max_queue_depth_ = 0;

  std::uint64_t own_root_counter_ = 0;
  std::uint64_t* root_counter_ = &own_root_counter_;
  std::uint32_t current_rank_ = kRootRank;
  std::vector<std::uint32_t> rank_counters_;

  /// Per-key count of the pending events at step_time_ — the time of the
  /// last popped event (0 before the first). Stale from the pop that
  /// reaches a new time until the first coalesce_continues() of that step
  /// counts it from the heap; kept exact by push (+1) and pop (-1) after.
  SimTime step_time_{};
  bool step_stale_ = false;
  std::vector<StepKey> step_keys_;

  std::vector<Outgoing> outbox_;  ///< cross-shard sends of the running window
  bool in_window_ = false;
  SimTime horizon_{};  ///< exclusive bound of the running window

  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::Histogram* sched_lag_ns_ = nullptr;  ///< cached series (stable ref)
};

}  // namespace p4auth::netsim
