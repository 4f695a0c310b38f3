// Base class for anything attached to the simulated network.
#pragma once

#include <span>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "dataplane/burst.hpp"

namespace p4auth::netsim {

class Network;

class Node {
 public:
  explicit Node(NodeId id) noexcept : id_(id) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  virtual ~Node() = default;

  NodeId id() const noexcept { return id_; }

  /// Dense per-network index assigned at add() time; the network uses it
  /// to address this node's burst-staging slot without a map lookup.
  std::uint32_t burst_index() const noexcept { return burst_index_; }
  void set_burst_index(std::uint32_t index) noexcept { burst_index_ = index; }

  /// A frame arrived on `ingress` (already past link latency and tamper).
  virtual void on_frame(PortId ingress, Bytes payload) = 0;

  /// The network staged `frames`, two or more same-time arrivals for this
  /// node, and is about to call on_frame once per entry, in order. A
  /// warm-up hook: implementations may prefetch and precompute but must
  /// stay side-effect-free (see dataplane/burst.hpp). Only such bursts are
  /// bracketed by on_burst_prepare/on_burst_end: a lone frame goes
  /// straight to on_frame, so a P4Auth agent's DigestPlan is empty outside
  /// a bracket. Default: no-op.
  virtual void on_burst_prepare(std::span<const dataplane::BurstFrameView> frames) {
    (void)frames;
  }

  /// The staged burst's last on_frame returned; drop any plan state. Called
  /// once per on_burst_prepare, never for a lone frame.
  virtual void on_burst_end() {}

  void attach(Network* network) noexcept { network_ = network; }

 protected:
  Network* network_ = nullptr;

 private:
  NodeId id_;
  std::uint32_t burst_index_ = 0;
};

}  // namespace p4auth::netsim
