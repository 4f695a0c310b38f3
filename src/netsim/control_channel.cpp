#include "netsim/control_channel.hpp"

namespace p4auth::netsim {

namespace {
/// Stream-splitting constant for the per-direction jitter RNGs.
constexpr std::uint64_t kToControllerStream = 0x9E3779B97F4A7C15ull;
}  // namespace

ControlChannel::ControlChannel(Simulator& sim, Switch& sw, ChannelModel model,
                               std::uint64_t jitter_seed)
    : sim_(sim),
      switch_sim_(&sim),
      switch_(sw),
      model_(model),
      to_switch_rng_(jitter_seed),
      to_controller_rng_(jitter_seed ^ kToControllerStream) {
  // The sink runs on the switch's shard; the delivery is a send to the
  // controller (shard 0) with the order allocated here, under the
  // switch's rank. Keyed so same-time PacketIn deliveries form a
  // coalescing group the controller can batch-verify across.
  switch_.set_packet_in_sink([this](Bytes message) {
    ++stats_.to_controller;
    SimTime delay = jittered(model_.to_controller_delay(message.size()), to_controller_rng_);
    // The transports modelled (gRPC over TCP, CPU-port PacketIn) are
    // in-order: a small message must not overtake a larger one sent
    // before it. The clamp only lengthens delays, so the lookahead floor
    // still holds.
    const SimTime now = switch_sim_->now();
    if (now + delay < to_controller_tail_) delay = to_controller_tail_ - now;
    to_controller_tail_ = now + delay;
    telemetry::SpanContext span;
    if (telemetry::Telemetry* side = switch_.telemetry()) span = side->spans.child_for_schedule();
    auto fire = [this, span, message = std::move(message)]() mutable {
      sim_.set_context(Simulator::kControllerRank);
      const auto scope = telemetry_ != nullptr ? telemetry_->spans.resume(span)
                                               : telemetry::SpanTracker::Scope{};
      if (controller_sink_) controller_sink_(switch_.id(), std::move(message));
    };
    switch_sim_->send_after(sim_, delay, kCtrlKey, std::move(fire));
  });
}

SimTime ControlChannel::jittered(SimTime delay, Xoshiro256& rng) {
  if (model_.jitter_fraction <= 0) return delay;
  const double scale = 1.0 + model_.jitter_fraction * (rng.next_double() - 0.5);
  return SimTime::from_ns(static_cast<std::uint64_t>(static_cast<double>(delay.ns()) * scale));
}

void ControlChannel::to_switch(Bytes message, std::function<void()> delivered) {
  ++stats_.to_switch;
  const SimTime delay = jittered(model_.to_switch_delay(message.size()), to_switch_rng_);
  telemetry::SpanContext span;
  if (telemetry_ != nullptr) span = telemetry_->spans.child_for_schedule();
  // Ingestion runs on the switch's shard; the `delivered` callback is
  // controller-side state (KMP bookkeeping), so it becomes a separate
  // same-time event on shard 0. Both orders are allocated here in call
  // order, so on a single shard the two fire back to back, ingestion
  // first.
  sim_.send_after(*switch_sim_, delay, 0,
                  [this, span, message = std::move(message)]() mutable {
                    switch_sim_->set_context(Simulator::rank_of(switch_.id()));
                    telemetry::Telemetry* side = switch_.telemetry();
                    const auto scope = side != nullptr ? side->spans.resume(span)
                                                       : telemetry::SpanTracker::Scope{};
                    switch_.handle_packet_out(std::move(message));
                  });
  if (delivered) {
    sim_.at_ordered(sim_.now() + delay, 0, sim_.allocate_order(),
                    [this, span, delivered = std::move(delivered)]() mutable {
                      sim_.set_context(Simulator::kControllerRank);
                      const auto scope = telemetry_ != nullptr
                                             ? telemetry_->spans.resume(span)
                                             : telemetry::SpanTracker::Scope{};
                      delivered();
                    });
  }
}

}  // namespace p4auth::netsim
