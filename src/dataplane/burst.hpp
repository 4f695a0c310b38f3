// Burst staging types for the vectorized hot path.
//
// The network coalesces consecutive same-time deliveries to one node
// into a burst (netsim/network.hpp) and shows a burst of two or more to
// the node *before* per-frame processing via Node::on_burst_prepare; a
// lone frame goes straight to the per-frame path, unplanned. The pre-pass
// is strictly side-effect-free — no telemetry, no RNG, no cost billing,
// no register-access counters — so per-seed outputs stay byte-identical
// to packet-at-a-time processing; its only products are warmed caches:
// prefetched table slots and a DigestPlan of MAC tags computed 4–8 at a
// time by the SIMD HalfSipHash lanes (crypto/halfsiphash_lanes.hpp),
// consumed when the frames flow through the unchanged per-frame path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/types.hpp"

namespace p4auth::dataplane {

/// Largest burst the network stages before forcing a flush. Bursts are
/// split deterministically at this bound, so the cap is part of the
/// reproducible schedule, not a tuning knob to flip per run.
inline constexpr std::size_t kMaxBurst = 64;

/// Read-only view of one staged frame awaiting pipeline processing.
/// The bytes live in the staged delivery buffer and stay valid (and
/// unmodified) until that frame's own on_frame call consumes them.
struct BurstFrameView {
  PortId ingress{};
  std::span<const std::uint8_t> frame{};
};

/// One precomputed MAC tag. Identity is the staged frame's byte storage:
/// delivery buffers are moved (never copied) from staging into the
/// packet, so data()/size() still name the same frame at consumption
/// time. `key` guards against a key install landing between planning and
/// consumption (e.g. a KMP frame earlier in the same burst): consumers
/// must fall back to the scalar path when the live key differs.
struct PlannedDigest {
  const std::uint8_t* frame = nullptr;
  std::size_t size = 0;
  Key64 key = 0;
  Digest32 digest = 0;
};

/// Fixed-capacity digest plan for one burst. Filled front-to-back by the
/// planner in staged-frame order; consumed with a monotone cursor by the
/// per-frame path (frames are processed in the same order they were
/// planned, so claim() is O(1)). Never allocates.
class DigestPlan {
 public:
  void clear() noexcept {
    count_ = 0;
    cursor_ = 0;
  }

  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  void add(const PlannedDigest& entry) noexcept {
    if (count_ < entries_.size()) entries_[count_++] = entry;
  }

  /// Hands out the planned digest for the frame currently being
  /// processed, or nullptr if the frame was never planned (no plan
  /// running, frame skipped by the planner, or plan exhausted). Only the
  /// entry at the cursor is considered — plans and processing share one
  /// frame order — and a claimed entry is consumed.
  const PlannedDigest* claim(const std::uint8_t* frame, std::size_t size) noexcept {
    if (cursor_ >= count_) return nullptr;
    const PlannedDigest& entry = entries_[cursor_];
    if (entry.frame != frame || entry.size != size) return nullptr;
    ++cursor_;
    return &entry;
  }

 private:
  std::array<PlannedDigest, kMaxBurst> entries_{};
  std::size_t count_ = 0;
  std::size_t cursor_ = 0;
};

}  // namespace p4auth::dataplane
