// Experiment fabric: assembles simulator + switches (wrapped in P4Auth
// agents) + control channels + controller, and brings up all keys. Shared
// by the benchmark harnesses and the integration tests so every figure is
// regenerated from the same machinery.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "controller/controller.hpp"
#include "core/agent.hpp"
#include "netsim/control_channel.hpp"
#include "netsim/network.hpp"
#include "netsim/sharded.hpp"

namespace p4auth::experiments {

struct FabricSwitch {
  netsim::Switch* sw = nullptr;
  core::P4AuthAgent* agent = nullptr;
  std::unique_ptr<netsim::ControlChannel> channel;
};

class Fabric {
 public:
  struct Options {
    bool p4auth = true;
    dataplane::TimingModel timing = dataplane::TimingModel::tofino();
    netsim::ChannelModel channel = netsim::ChannelModel::packet_out();
    controller::Controller::Config controller_config{};
    std::uint64_t seed = 1;
    int ports_per_switch = 16;
    /// Leading bytes of in-network feedback messages each agent must
    /// protect (e.g. the HULA probe magic).
    std::vector<std::uint8_t> protected_magics{};
    /// §XI extension: encrypt DP-DP feedback payloads on every agent.
    bool encrypt_feedback = false;
    /// Digest algorithm profile: HalfSipHash24 (BMv2-analog, default) or
    /// Crc32Envelope (Tofino-analog, §VII). Applied to agents and the
    /// controller alike.
    crypto::MacKind mac = crypto::MacKind::HalfSipHash24;
    /// Shared telemetry bundle wired into the network, every switch, and
    /// the controller (null = telemetry off).
    telemetry::Telemetry* telemetry = nullptr;
    /// Burst pre-pass on every switch (default on). Off forces the
    /// packet-at-a-time path; results must be byte-identical either way
    /// (asserted by the burst-equivalence integration test).
    bool burst_planning = true;
    /// Parallel sharded execution (docs/DESIGN.md, "Sharded simulation").
    /// N > 1 partitions the switches into N shards (clamped to the switch
    /// count; the controller is pinned with shard 0) and drives them with
    /// a conservative-lookahead engine; any value <= 1 runs one shard.
    /// Metrics, traces, and audit trails are byte-identical for ANY shard
    /// count.
    int shards = 1;
    /// Worker threads for sharded runs (the calling thread counts): 0 =
    /// one per shard bounded by the hardware, else the explicit budget.
    int shard_workers = 0;
    /// Test hook: explicit (switch id, shard) placement overriding the
    /// contiguous BFS partition; unlisted switches land on shard 0. The
    /// determinism contract says any placement yields identical bytes —
    /// the shard-permutation regression test exercises exactly that.
    std::vector<std::pair<std::uint32_t, int>> shard_assignment{};
  };

  explicit Fabric(Options options);

  /// Adds a switch whose inner program is built by `make_inner` against
  /// the switch's register file. Returns a stable reference.
  using ProgramFactory =
      std::function<std::unique_ptr<dataplane::DataPlaneProgram>(dataplane::RegisterFile&)>;
  FabricSwitch& add_switch(NodeId id, const ProgramFactory& make_inner);

  /// Connects two switches and registers their neighbourship with both
  /// agents; remembered for init_all_keys().
  netsim::Link* connect(NodeId a, PortId port_a, NodeId b, PortId port_b,
                        netsim::LinkConfig config = {});

  /// Brings up every local key, then every port key (both directions of
  /// each link share one key). No-op when P4Auth is disabled.
  Status init_all_keys();

  /// LLDP round: every switch announces on all its ports; reports flow to
  /// the controller, which (with Config.auto_port_keys) initializes port
  /// keys for every discovered adjacency on its own.
  void discover_topology();

  FabricSwitch& at(NodeId id);

  /// Runs the fabric to quiescence. The first call (or the first key
  /// bring-up) partitions the topology when more than one shard is asked
  /// for; a multi-shard engine then advances every shard in lookahead
  /// windows. All scheduling (inject, controller ops) must happen while
  /// the fabric is quiescent — between run_all() calls, never inside a
  /// handler that expects to stop the engine mid-window.
  void run_all();

  /// Exports pool/sim stats into the telemetry bundle(s), merges the
  /// internal per-shard bundles into the user bundle (rebuilding the
  /// single timeline a one-shard run produces) and stamps it. Call once,
  /// after the last run_all().
  /// No-op when the fabric has no telemetry bundle.
  void collect_telemetry();

  /// Shards the next run_all() will use (1 until the partition is built).
  int shard_count() const noexcept { return engine_->shards(); }
  /// The engine driving `sim` (and, once partitioned, the other shards);
  /// never null.
  netsim::ShardedSimulator* engine() noexcept { return engine_.get(); }

  bool p4auth_enabled() const noexcept { return options_.p4auth; }
  const Options& options() const noexcept { return options_; }

  netsim::Simulator sim;
  netsim::Network net{sim};
  controller::Controller controller;

 private:
  struct LinkRecord {
    NodeId a{};
    PortId port_a{};
    NodeId b{};
    PortId port_b{};
  };

  /// One-shot: with more than one shard requested, partitions the
  /// topology, replaces the one-shard engine, builds the internal
  /// per-shard telemetry bundles, and rewires network, switch and channel
  /// state onto their home shards.
  void finalize_shards();

  Options options_;
  std::deque<FabricSwitch> switches_;
  std::vector<LinkRecord> links_;
  bool shards_finalized_ = false;
  std::unique_ptr<netsim::ShardedSimulator> engine_;
  /// Internal bundles for shards 1.. (shard 0 uses options().telemetry).
  std::vector<std::unique_ptr<telemetry::Telemetry>> shard_bundles_;
};

/// Retries `op` (an async operation reporting a Status to the callback it
/// is given) until it succeeds or `attempts` tries are spent, running the
/// fabric to quiescence after each try. Returns the last failure.
template <typename Op>
Status retry_sync(Fabric& fabric, int attempts, Op op) {
  Status last = make_error("not attempted");
  for (int i = 0; i < attempts; ++i) {
    std::optional<Status> result;
    op([&](Status s) { result = std::move(s); });
    fabric.run_all();
    if (result.has_value() && result->ok()) return Status{};
    if (result.has_value()) last = std::move(*result);
  }
  return last;
}

/// Pre-shared boot secret per switch (stands in for the per-switch secret
/// compiled into the binary).
Key64 seed_key_for(NodeId id);

}  // namespace p4auth::experiments
