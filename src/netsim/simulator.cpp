#include "netsim/simulator.hpp"

#include <algorithm>
#include <cassert>

#include "telemetry/telemetry.hpp"

namespace p4auth::netsim {

void Simulator::push_event(SimTime t, std::uint64_t key, std::uint64_t order, Handler&& fn) {
  ++scheduled_;
  const std::uint32_t slot = park(std::move(fn));
  entries_[slot] = Entry{t, order, key, kNoSlot};
  if (t == base_) {
    // Bucket 0 stays sorted by descending order; a push at now usually
    // lands near the back, among the events about to fire.
    const auto pos = std::partition_point(
        current_.begin(), current_.end(),
        [&](std::uint32_t s) { return entries_[s].order > order; });
    current_.insert(pos, slot);
  } else {
    link(slot);
  }
  if (++size_ > max_queue_depth_) max_queue_depth_ = size_;
}

std::uint32_t Simulator::park(Handler&& fn) {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(fn);
    return slot;
  }
  slab_.push_back(std::move(fn));
  entries_.emplace_back();
  // Every slot is either pending or free, so the free list never needs
  // more room than the slab has: fire_next() can release without
  // allocating.
  if (free_slots_.capacity() < slab_.capacity()) free_slots_.reserve(slab_.capacity());
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void Simulator::link(std::uint32_t slot) noexcept {
  Entry& e = entries_[slot];
  const auto b = static_cast<std::size_t>(std::bit_width(e.time.ns() ^ base_.ns()) - 1);
  const std::uint64_t bit = std::uint64_t{1} << b;
  if ((mask_ & bit) == 0) {
    e.next = kNoSlot;
    bucket_min_[b] = e.time;
    mask_ |= bit;
  } else {
    e.next = bucket_head_[b];
    if (e.time < bucket_min_[b]) bucket_min_[b] = e.time;
  }
  bucket_head_[b] = slot;
}

void Simulator::refill() {
  const auto b = static_cast<std::size_t>(std::countr_zero(mask_));
  mask_ &= mask_ - 1;
  base_ = bucket_min_[b];
  // Every event in bucket b agrees with the new base above bit b, so each
  // one lands in bucket 0 or in a bucket below b: none is revisited here.
  for (std::uint32_t slot = bucket_head_[b]; slot != kNoSlot;) {
    const std::uint32_t next = entries_[slot].next;
    if (entries_[slot].time == base_) {
      current_.push_back(slot);
    } else {
      link(slot);
    }
    slot = next;
  }
  if (current_.size() > 1) {
    std::sort(current_.begin(), current_.end(), [this](std::uint32_t a, std::uint32_t c) {
      return entries_[a].order > entries_[c].order;
    });
  }
}

void Simulator::observe_lag_value(SimTime lag) {
  sched_lag_ns_->observe(static_cast<double>(lag.ns()));
}

void Simulator::at_keyed(SimTime t, std::uint64_t key, Handler&& fn) {
  assert(t >= now_ && "cannot schedule into the past");
  if (t < now_) t = now_;  // release builds: fire immediately, never rewind
  if (sched_lag_ns_ != nullptr) observe_lag_value(t - now_);
  push_event(t, key, allocate_order(), std::move(fn));
}

void Simulator::at_ordered(SimTime t, std::uint64_t key, std::uint64_t order, Handler&& fn) {
  assert(t >= now_ && "cannot schedule into the past");
  if (t < now_) t = now_;
  push_event(t, key, order, std::move(fn));
}

void Simulator::send_after(Simulator& dst, SimTime delay, std::uint64_t key, Handler&& fn) {
  if (sched_lag_ns_ != nullptr) observe_lag_value(delay);
  const SimTime t = now_ + delay;
  const std::uint64_t order = allocate_order();
  if (&dst == this || !in_window_) {
    dst.at_ordered(t, key, order, std::move(fn));
    return;
  }
  // Conservative-lookahead invariant: the destination runs the same
  // window concurrently, so the event must land at or past its horizon.
  assert(t >= horizon_ && "cross-shard send below the lookahead horizon");
  outbox_.push_back(Outgoing{&dst, t, order, key, std::move(fn)});
}

void Simulator::flush_outbox() {
  for (Outgoing& out : outbox_) {
    out.dst->at_ordered(out.time, out.key, out.order, std::move(out.fn));
  }
  outbox_.clear();  // capacity retained: steady-state barriers do not allocate
}

void Simulator::set_telemetry(telemetry::Telemetry* telemetry) noexcept {
  telemetry_ = telemetry;
  sched_lag_ns_ =
      telemetry_ == nullptr ? nullptr : &telemetry_->metrics.histogram("sim.sched_lag_ns");
  if (telemetry_ != nullptr) telemetry_->set_order_cursor(&firing_order_);
}

void Simulator::export_stats() {
  if (telemetry_ == nullptr) return;
  auto& m = telemetry_->metrics;
  m.counter("sim.events_scheduled").inc(scheduled_);
  m.counter("sim.events_processed").inc(processed_);
  m.gauge("sim.queue_depth").set(static_cast<double>(size_));
}

void Simulator::fire_next() {
  if (current_.empty()) refill();
  const std::uint32_t slot = current_.back();
  current_.pop_back();
  --size_;
  const Entry& ev = entries_[slot];
  now_ = ev.time;
  firing_key_ = ev.key;
  firing_order_ = ev.order;
  current_rank_ = static_cast<std::uint32_t>(ev.order >> 32);
  // Move the closure out and free its slot before it runs: it may
  // schedule new events, which can reuse the slot or grow the slab.
  Handler fn = std::move(slab_[slot]);
  free_slots_.push_back(slot);
  ++processed_;
  fn();
  firing_key_ = 0;
  firing_order_ = 0;
}

void Simulator::run(std::size_t max_events) {
  while (size_ != 0 && processed_ < max_events) fire_next();
  current_rank_ = kRootRank;
}

void Simulator::run_until(SimTime t) {
  SimTime next{};
  while (peek(next) && next <= t) fire_next();
  current_rank_ = kRootRank;
  // Advance-only: a run_until into the past (t < now()) must not rewind
  // the clock, or subsequent after() calls would schedule "before" events
  // that already fired.
  if (t > now_) now_ = t;
}

void Simulator::run_window(SimTime horizon) {
  in_window_ = true;
  horizon_ = horizon;
  SimTime next{};
  while (peek(next) && next < horizon) fire_next();
  in_window_ = false;
  current_rank_ = kRootRank;
}

}  // namespace p4auth::netsim
