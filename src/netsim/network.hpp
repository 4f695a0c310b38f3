// The network: owns nodes and links, routes frames between them with
// latency/serialization delays, and applies on-link tamper hooks.
//
// State that the hot path mutates per frame — buffer pool, delivery
// stats, cached telemetry series — lives in per-shard
// ShardState so a sharded run (see netsim/sharded.hpp) never shares a
// mutable cache line between worker threads. A standalone network (and
// a one-shard fabric) uses exactly one ShardState, index 0.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/buffer_pool.hpp"
#include "netsim/link.hpp"
#include "netsim/node.hpp"
#include "netsim/shard_context.hpp"
#include "netsim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace p4auth::netsim {

class Network {
 public:
  explicit Network(Simulator& sim) {
    shards_.push_back(ShardState{});
    shards_[0].sim = &sim;
    shards_[0].pool = &pool_;
  }

  /// Constructs a node in place; the network owns it.
  template <typename T, typename... Args>
  T* add(Args&&... args) {
    auto node = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = node.get();
    raw->attach(this);
    NodeSlot& slot = slot_of(raw->id());
    if (slot.node == nullptr) slot.node = raw;  // the first node with an id keeps it
    nodes_.push_back(std::move(node));
    return raw;
  }

  Node* node(NodeId id) noexcept {
    return id.value < by_id_.size() ? by_id_[id.value].node : nullptr;
  }

  /// Wires (a, port_a) <-> (b, port_b). A port can carry one link.
  Link* connect(NodeId a, PortId port_a, NodeId b, PortId port_b, LinkConfig config = {});

  Link* link_at(NodeId node, PortId port) noexcept {
    if (node.value >= by_id_.size()) return nullptr;
    const std::vector<Link*>& links = by_id_[node.value].links;
    return port.value < links.size() ? links[port.value] : nullptr;
  }

  /// Sends `payload` out of (from, port): records utilization, applies the
  /// direction's tamper hook, and delivers to the peer after
  /// serialization + propagation delay. No link on the port drops.
  void transmit(NodeId from, PortId port, Bytes payload);

  /// Test/host injection: delivers `payload` to `to` on `ingress` after
  /// `delay`, bypassing links (models a directly-attached host).
  void inject(NodeId to, PortId ingress, Bytes payload, SimTime delay = {});

  /// The simulator driving the shard this thread is executing (shard 0,
  /// the constructor simulator, outside any shard window). Node code
  /// reads the clock and schedules through this, so the same switch
  /// implementation runs unmodified on any shard.
  Simulator& sim() noexcept { return *cur().sim; }

  /// The current shard's packet-buffer pool. Payload buffers are recycled
  /// through the link -> switch -> pipeline -> emit cycle: switches
  /// acquire emit buffers here and hand spent ingress payloads back, so
  /// steady-state forwarding runs without heap churn. One pool per shard
  /// keeps the recycle cycle thread-local; cross-shard frames migrate
  /// pools (released where consumed), which leaves the acquire/release
  /// *sums* invariant under partitioning.
  BufferPool& pool() noexcept { return *cur().pool; }

  /// Attaches the shared telemetry bundle (null = off): link queue-wait
  /// and delivery-latency histograms, drop/tamper counters and events.
  /// Hot-path series are cached here so transmit() does pointer tests
  /// instead of registry map lookups per frame. Binds shard 0; sharded
  /// runs bind the other shards via configure_shards.
  void set_telemetry(telemetry::Telemetry* telemetry) noexcept;

  /// Spreads the network over several shards: `shard_sims[k]` and
  /// `shard_bundles[k]` drive shard k, and `assignment` maps every node
  /// onto its home shard. shard_sims[0] must be the constructor simulator
  /// and shard_bundles[0] the bundle passed to set_telemetry.
  void configure_shards(const std::vector<Simulator*>& shard_sims,
                        const std::vector<telemetry::Telemetry*>& shard_bundles,
                        const std::vector<std::pair<NodeId, int>>& assignment);

  /// Home shard of a node (0 until configure_shards places it).
  int shard_of(NodeId node) const noexcept {
    return node.value < shard_by_id_.size() ? shard_by_id_[node.value] : 0;
  }

  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Writes the pools' counters into the telemetry registry (pool.*).
  /// Call once per run, before the bundle is stamped/serialized. Only the
  /// partition-invariant series (the acquire sum) goes into each shard's
  /// bundle, unlabelled.
  void export_pool_stats();

  struct Stats {
    std::uint64_t frames_delivered = 0;
    std::uint64_t frames_tampered = 0;
    std::uint64_t frames_dropped_by_tamper = 0;
    std::uint64_t frames_dropped_no_link = 0;
    std::uint64_t frames_queued = 0;        ///< frames that waited for a busy link
    SimTime total_queue_delay{};            ///< accumulated egress queueing delay
  };
  /// Sum of all shards' stats (each shard counts what it handled).
  Stats merged_stats() const noexcept;

 private:
  /// What the network knows of one node id: the node and, by port, the
  /// link on each port. Indexed by NodeId value; read-only while running.
  struct NodeSlot {
    Node* node = nullptr;
    std::vector<Link*> links;  ///< by PortId value; null = no link
  };

  NodeSlot& slot_of(NodeId id) {
    if (id.value >= by_id_.size()) by_id_.resize(id.value + 1u);
    return by_id_[id.value];
  }

  /// Cached registry series (stable references), bound per shard.
  struct TeleSeries {
    telemetry::Histogram* queue_wait_ns = nullptr;
    telemetry::Histogram* delivery_ns = nullptr;
    telemetry::Counter* frames_delivered = nullptr;
    telemetry::Counter* drops_no_link = nullptr;
    telemetry::Counter* tamper_drops = nullptr;
    telemetry::Counter* tamper_rewrites = nullptr;
  };

  /// Everything the per-frame hot path mutates, one copy per shard.
  struct ShardState {
    Simulator* sim = nullptr;
    BufferPool* pool = nullptr;
    telemetry::Telemetry* telemetry = nullptr;
    TeleSeries tele;
    Stats stats;
    /// The copy of a frame taken before its tamper hook runs, reused so
    /// tampered links do not allocate per frame.
    Bytes tamper_original;
  };

  ShardState& cur() noexcept {
    const int s = current_shard();
    return shards_[s < 0 || static_cast<std::size_t>(s) >= shards_.size()
                       ? 0
                       : static_cast<std::size_t>(s)];
  }

  void bind_tele(ShardState& st) noexcept;

  /// Hands one frame to `dst` under its resumed in-flight span. Every
  /// delivery is its own event, so frames reach on_frame one at a time.
  static void deliver(ShardState& st, Node& dst, PortId port, Bytes&& payload,
                      telemetry::SpanContext span);

  /// Schedules a delivery closure `delay` from now. The order is
  /// allocated from the *sending* shard's simulator under the sending
  /// rank (each rank's counter lives on one shard, so the sequence is
  /// partition-invariant), then routed to `dst`'s home shard.
  void schedule_delivery(ShardState& src, NodeId dst, SimTime delay, Simulator::Handler&& fn);

  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<NodeSlot> by_id_;  ///< nodes and links by NodeId value
  BufferPool pool_;

  std::vector<ShardState> shards_;  ///< one per shard
  std::vector<std::unique_ptr<BufferPool>> shard_pools_;  ///< pools for shards 1..
  std::vector<int> shard_by_id_;    ///< home shard by NodeId value
};

}  // namespace p4auth::netsim
