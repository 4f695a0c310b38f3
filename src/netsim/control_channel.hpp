// Controller <-> switch transport (the C-DP path).
//
// Two channel models mirror the paper's evaluation variants (§IX-B):
//  * P4Runtime — the full gRPC + SDK + driver stack: higher fixed latency
//    per message and a per-byte serialization cost that makes writes
//    (which carry data as well as an index) slower than reads — the
//    source of the paper's "read throughput 1.7x write" observation.
//  * PacketOut/PacketIn (PTF-style) — raw CPU-port frames: cheaper fixed
//    cost; DP-Reg-RW and P4Auth both ride this.
// Latency constants are calibration points, documented in EXPERIMENTS.md.
//
// The controller lives on shard 0 and the switch may live on another
// shard (set_switch_sim), so the two legs are cross-shard sends — the
// channel base latencies are part of the lookahead, which is exactly
// P4sim's observation that transport delay IS the conservative
// synchronization slack.
#pragma once

#include <functional>

#include "netsim/switch.hpp"

namespace p4auth::netsim {

struct ChannelModel {
  SimTime to_switch_base{};
  SimTime to_controller_base{};
  double per_byte_ns = 0;
  /// Mean-preserving multiplicative jitter: each message's delay is scaled
  /// by a uniform draw from [1 - j/2, 1 + j/2]. 0 = deterministic.
  double jitter_fraction = 0;

  static ChannelModel p4runtime() noexcept {
    // gRPC marshal + HTTP/2 + agent dispatch + SDK + driver. Recalibrated
    // (EXPERIMENTS.md) after the host-stack alloc/copy overhead folded
    // into the original constants was eliminated; both models scaled by
    // the same 0.75 so the paper's cross-variant ratios are unchanged.
    return ChannelModel{SimTime::from_us(158), SimTime::from_us(158), 2700.0};
  }
  static ChannelModel packet_out() noexcept {
    // Raw CPU-port frame via the PTF harness (same 0.75 rescale).
    return ChannelModel{SimTime::from_us(105), SimTime::from_us(105), 338.0};
  }

  SimTime to_switch_delay(std::size_t bytes) const noexcept {
    return to_switch_base + per_byte_cost(bytes);
  }
  SimTime to_controller_delay(std::size_t bytes) const noexcept {
    return to_controller_base + per_byte_cost(bytes);
  }

  /// Lower bound on any jittered delay with base `base`: the jitter draw
  /// scales by at least (1 - jitter/2). The fabric folds this into the
  /// cross-shard lookahead.
  SimTime min_delay(SimTime base) const noexcept {
    if (jitter_fraction <= 0) return base;
    const double floor_scale = 1.0 - jitter_fraction / 2.0;
    if (floor_scale <= 0) return SimTime{};
    return SimTime::from_ns(
        static_cast<std::uint64_t>(static_cast<double>(base.ns()) * floor_scale));
  }

 private:
  SimTime per_byte_cost(std::size_t bytes) const noexcept {
    return SimTime::from_ns(static_cast<std::uint64_t>(per_byte_ns * static_cast<double>(bytes)));
  }
};

class ControlChannel {
 public:
  /// Binds to `sw`'s PacketIn path; `sim` drives the controller side
  /// (and the switch side until set_switch_sim). The channel outlives
  /// neither the simulator nor the switch (both owned by the caller's
  /// Network/stack). `jitter_seed` seeds the delay-jitter RNGs, one
  /// stream per direction so each direction's draws happen in that
  /// endpoint's own event order, which is partition-invariant. Derive it
  /// from the experiment seed so multi-seed campaigns see genuinely
  /// different channel timings (the default keeps standalone channels
  /// stable).
  ControlChannel(Simulator& sim, Switch& sw, ChannelModel model,
                 std::uint64_t jitter_seed = kDefaultJitterSeed);

  static constexpr std::uint64_t kDefaultJitterSeed = 0x71773E12u;

  /// Coalescing key shared by every PacketIn delivery event: while one
  /// controller-sink event runs, Simulator::coalesce_continues() reports
  /// whether more same-time PacketIns are pending — the seam the
  /// controller's batched digest verification rides on. Network frame
  /// deliveries carry no key, so only PacketIns ever coalesce.
  static constexpr std::uint64_t kCtrlKey = 1ull << 20;

  /// Controller -> switch (PacketOut). Crosses the OS boundary on arrival.
  /// `delivered`, if given, fires right after the switch ingests the
  /// message (used to timestamp KMP completion).
  void to_switch(Bytes message, std::function<void()> delivered = {});

  /// Registers the controller-side receiver of PacketIn messages.
  void set_controller_sink(std::function<void(NodeId, Bytes)> sink) {
    controller_sink_ = std::move(sink);
  }

  /// Attaches the controller-side telemetry bundle (null = off):
  /// messages in flight on the channel carry child spans of the sender's
  /// span, so a trace follows C-DP messages across the scheduling
  /// boundary in both directions. The switch side uses the switch's own
  /// bundle.
  void set_telemetry(telemetry::Telemetry* telemetry) noexcept { telemetry_ = telemetry; }

  /// The simulator driving the switch's home shard (default: the
  /// controller's).
  void set_switch_sim(Simulator& switch_sim) noexcept { switch_sim_ = &switch_sim; }

  const ChannelModel& model() const noexcept { return model_; }
  NodeId switch_id() const noexcept { return switch_.id(); }

  struct Stats {
    std::uint64_t to_switch = 0;
    std::uint64_t to_controller = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  SimTime jittered(SimTime delay, Xoshiro256& rng);

  Simulator& sim_;
  Simulator* switch_sim_;
  Switch& switch_;
  ChannelModel model_;
  std::function<void(NodeId, Bytes)> controller_sink_;
  Stats stats_;
  Xoshiro256 to_switch_rng_;
  Xoshiro256 to_controller_rng_;
  SimTime to_controller_tail_{};  ///< arrival time of the latest PacketIn sent
  telemetry::Telemetry* telemetry_ = nullptr;
};

}  // namespace p4auth::netsim
