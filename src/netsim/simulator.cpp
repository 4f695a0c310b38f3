#include "netsim/simulator.hpp"

#include <cassert>

#include "telemetry/telemetry.hpp"

namespace p4auth::netsim {

void Simulator::push_event(SimTime t, std::uint64_t key, std::uint64_t order, Handler&& fn) {
  ++scheduled_;
  if (key != 0 && t == step_time_ && !step_stale_) step_add(key);
  heap_.push_back(Entry{t, order, key, park(std::move(fn))});
  if (heap_.size() > max_queue_depth_) max_queue_depth_ = heap_.size();
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

std::uint32_t Simulator::park(Handler&& fn) {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(fn);
    return slot;
  }
  slab_.push_back(std::move(fn));
  // Every slot is either pending or free, so the free list never needs
  // more room than the slab has: fire_next() can release without
  // allocating.
  if (free_slots_.capacity() < slab_.capacity()) free_slots_.reserve(slab_.capacity());
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void Simulator::step_add(std::uint64_t key) {
  for (StepKey& k : step_keys_) {
    if (k.key == key) {
      ++k.n;
      return;
    }
  }
  step_keys_.push_back(StepKey{key, 1});
}

void Simulator::step_remove(std::uint64_t key) noexcept {
  for (StepKey& k : step_keys_) {
    if (k.key != key) continue;
    if (--k.n == 0) {
      k = step_keys_.back();
      step_keys_.pop_back();
    }
    return;
  }
}

void Simulator::count_step() {
  step_stale_ = false;
  step_keys_.clear();
  // Nothing pending fires before the step time and a heap parent never
  // fires after its children, so every pending event at the step time
  // has only ancestors at that time: they form a connected subtree at the
  // root. Descending only into children at the step time visits exactly
  // those events, and the recursion is no deeper than the heap.
  if (!heap_.empty() && heap_.front().time == step_time_) count_subtree(0);
}

void Simulator::count_subtree(std::size_t i) {
  if (heap_[i].key != 0) step_add(heap_[i].key);
  for (std::size_t c = 2 * i + 1; c <= 2 * i + 2 && c < heap_.size(); ++c) {
    if (heap_[c].time == step_time_) count_subtree(c);
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
  m.gauge("sim.queue_depth").set(static_cast<double>(heap_.size()));
}

void Simulator::fire_next() {
  // Move the closure out and free its slot before it runs: it may
  // schedule new events, which can reuse the slot or grow the slab.
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry ev = heap_.back();
  heap_.pop_back();
  Handler fn = std::move(slab_[ev.slot]);
  free_slots_.push_back(ev.slot);
  if (ev.time != step_time_) {
    step_time_ = ev.time;
    step_stale_ = true;
  } else if (ev.key != 0 && !step_stale_) {
    step_remove(ev.key);
  }
  now_ = ev.time;
  firing_key_ = ev.key;
  firing_order_ = ev.order;
  current_rank_ = static_cast<std::uint32_t>(ev.order >> 32);
  ++processed_;
  fn();
  firing_key_ = 0;
  firing_order_ = 0;
}

void Simulator::run(std::size_t max_events) {
  while (!heap_.empty() && processed_ < max_events) fire_next();
  current_rank_ = kRootRank;
}

void Simulator::run_until(SimTime t) {
  while (!heap_.empty() && heap_.front().time <= t) fire_next();
  current_rank_ = kRootRank;
  // Advance-only: a run_until into the past (t < now()) must not rewind
  // the clock, or subsequent after() calls would schedule "before" events
  // that already fired.
  if (t > now_) now_ = t;
}

void Simulator::run_window(SimTime horizon) {
  in_window_ = true;
  horizon_ = horizon;
  while (!heap_.empty() && heap_.front().time < horizon) fire_next();
  in_window_ = false;
  current_rank_ = kRootRank;
}

}  // namespace p4auth::netsim
