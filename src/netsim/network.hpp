// The network: owns nodes and links, routes frames between them with
// latency/serialization delays, and applies on-link tamper hooks.
//
// State that the hot path mutates per frame — buffer pool, delivery
// stats, burst staging, cached telemetry series — lives in per-shard
// ShardState so a sharded run (see netsim/sharded.hpp) never shares a
// mutable cache line between worker threads. A standalone network (and
// a one-shard fabric) uses exactly one ShardState, index 0.
#pragma once

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "common/buffer_pool.hpp"
#include "dataplane/burst.hpp"
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
    raw->set_burst_index(static_cast<std::uint32_t>(nodes_.size()));
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

  /// Opt-in {shard=k}-labelled pool/burst series in the sharded export.
  /// Off by default: the per-shard split depends on the partition, so the
  /// labelled series would break byte-equivalence across --shards.
  void set_shard_diagnostics(bool on) noexcept { shard_diagnostics_ = on; }

  /// Writes the pools' counters into the telemetry registry (pool.*).
  /// Call once per run, before the bundle is stamped/serialized. Only the
  /// partition-invariant series (acquire sum, burst high-water max) go
  /// into each shard's bundle unlabelled, plus the full per-shard series
  /// under a {shard=k} label when shard diagnostics are enabled.
  void export_pool_stats();

  /// Flushes any staged delivery burst immediately. The delivery path
  /// calls this itself whenever the next simulator event does not extend
  /// the burst, so steady-state callers never need it; it exists for
  /// harnesses that stop the simulator mid-schedule (bounded run(n))
  /// and still want every fired delivery processed.
  void flush_deliveries();

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

  /// One frame whose delivery event fired but whose processing waits for
  /// the burst to close. The payload buffer is staged by move and later
  /// moved on into on_frame, so frame byte addresses are stable from
  /// planning through consumption (dataplane/burst.hpp relies on this).
  struct StagedFrame {
    PortId port{};
    bool from_link = false;  ///< transmit() delivery (inject() skips net.frames_delivered)
    telemetry::SpanContext span{};
    Bytes payload;
  };

  /// Cached registry series (stable references), bound per shard.
  struct TeleSeries {
    telemetry::Histogram* queue_wait_ns = nullptr;
    telemetry::Histogram* delivery_ns = nullptr;
    telemetry::Histogram* burst_size = nullptr;
    telemetry::Counter* frames_delivered = nullptr;
    telemetry::Counter* drops_no_link = nullptr;
    telemetry::Counter* tamper_drops = nullptr;
    telemetry::Counter* tamper_rewrites = nullptr;
  };

  /// Per-node burst staging: delivery events for one node coalesce here
  /// until the node's (time, key) group is exhausted. Same-time events of
  /// other nodes may fire in between, so several slots can be open.
  struct BurstSlot {
    Node* node = nullptr;
    std::vector<StagedFrame> frames;  ///< reserved to kMaxBurst; never reallocates
  };

  /// Everything the per-frame hot path mutates, one copy per shard.
  struct ShardState {
    Simulator* sim = nullptr;
    BufferPool* pool = nullptr;
    telemetry::Telemetry* telemetry = nullptr;
    TeleSeries tele;
    Stats stats;
    std::size_t burst_highwater = 0;  ///< largest burst flushed this run
    std::vector<BurstSlot> slots;     ///< indexed by Node::burst_index
    std::vector<std::uint32_t> open;  ///< slots with staged frames, open order
    /// Scratch reused across calls: the views a flush hands to the burst
    /// pre-pass (no per-burst zero fill), and the copy of a frame taken
    /// before its tamper hook runs (no per-frame allocation).
    std::array<dataplane::BurstFrameView, dataplane::kMaxBurst> views;
    Bytes tamper_original;
  };

  ShardState& cur() noexcept {
    const int s = current_shard();
    return shards_[s < 0 || static_cast<std::size_t>(s) >= shards_.size()
                       ? 0
                       : static_cast<std::size_t>(s)];
  }

  void bind_tele(ShardState& st) noexcept;

  /// Delivery rendezvous: stages the frame and flushes when the burst
  /// closes (next event differs in time/key, or kMaxBurst reached).
  void deliver(Node& dst, PortId port, Bytes payload, telemetry::SpanContext span,
               bool from_link);
  void flush_slot(ShardState& st, std::uint32_t index);

  /// Schedules a delivery closure `delay` from now, keyed on `key`. The
  /// order is allocated from the *sending* shard's simulator under the
  /// sending rank (each rank's counter lives on one shard, so the
  /// sequence is partition-invariant), then routed to `dst`'s home shard.
  void schedule_delivery(ShardState& src, NodeId dst, SimTime delay, std::uint64_t key,
                         Simulator::Handler&& fn);

  /// Coalescing key for deliveries to `node`: nonzero, distinct per node.
  static std::uint64_t delivery_key(NodeId node) noexcept {
    return static_cast<std::uint64_t>(node.value) + 1;
  }

  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<NodeSlot> by_id_;  ///< nodes and links by NodeId value
  BufferPool pool_;

  std::vector<ShardState> shards_;  ///< one per shard
  std::vector<std::unique_ptr<BufferPool>> shard_pools_;  ///< pools for shards 1..
  std::vector<int> shard_by_id_;    ///< home shard by NodeId value
  bool shard_diagnostics_ = false;
};

}  // namespace p4auth::netsim
