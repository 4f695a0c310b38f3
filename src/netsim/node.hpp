// Base class for anything attached to the simulated network.
#pragma once

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace p4auth::netsim {

class Network;

class Node {
 public:
  explicit Node(NodeId id) noexcept : id_(id) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  virtual ~Node() = default;

  NodeId id() const noexcept { return id_; }

  /// A frame arrived on `ingress` (already past link latency and tamper),
  /// in its own delivery event: same-instant frames arrive one at a time,
  /// in schedule order.
  virtual void on_frame(PortId ingress, Bytes payload) = 0;

  void attach(Network* network) noexcept { network_ = network; }

 protected:
  Network* network_ = nullptr;

 private:
  NodeId id_;
};

}  // namespace p4auth::netsim
