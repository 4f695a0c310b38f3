#include "experiments/kmp_experiment.hpp"

#include <atomic>
#include <memory>

#include "common/stats.hpp"
#include "experiments/fabric.hpp"

namespace p4auth::experiments {
namespace {

constexpr NodeId kA{1}, kB{2};
constexpr PortId kPortA{1}, kPortB{1};

Fabric::ProgramFactory null_program() {
  return [](dataplane::RegisterFile&) -> std::unique_ptr<dataplane::DataPlaneProgram> {
    return nullptr;
  };
}

}  // namespace

KmpRttResult run_kmp_rtt_experiment(const KmpRttOptions& options) {
  Fabric::Options fabric_options;
  fabric_options.seed = options.seed;
  fabric_options.telemetry = options.telemetry;
  Fabric fabric(fabric_options);
  auto& a = fabric.add_switch(kA, null_program());
  fabric.add_switch(kB, null_program());
  netsim::LinkConfig link;
  link.latency = SimTime::from_us(20);
  fabric.connect(kA, kPortA, kB, kPortB, link);

  SampleSet local_init, local_update, port_init, port_update;

  for (int i = 0; i < options.samples; ++i) {
    // (a) Local key initialization: EAK + ADHKD, 4 messages.
    {
      const SimTime begin = fabric.sim.now();
      bool done = false;
      fabric.controller.init_local_key(kA, [&](Result<Key64> r) { done = r.ok(); });
      fabric.run_all();
      if (done) local_init.add((fabric.sim.now() - begin).ms());
    }
    // Switch B needs keys once for the port exchanges.
    if (i == 0) {
      fabric.controller.init_local_key(kB, [](Result<Key64>) {});
      fabric.run_all();
    }
    // (b) Local key update: ADHKD only, 2 messages.
    {
      const SimTime begin = fabric.sim.now();
      bool done = false;
      fabric.controller.update_local_key(kA, [&](Result<Key64> r) { done = r.ok(); });
      fabric.run_all();
      if (done) local_update.add((fabric.sim.now() - begin).ms());
    }
    // (c) Port key initialization: 5 messages redirected via controller.
    {
      const SimTime begin = fabric.sim.now();
      bool done = false;
      fabric.controller.init_port_key(kA, kPortA, kB, kPortB, [&](Status s) { done = s.ok(); });
      fabric.run_all();
      if (done) port_init.add((fabric.sim.now() - begin).ms());
    }
    // (d) Port key update: portKeyUpdate + 2 direct DP-DP legs; complete
    // when the initiating data plane installs the new key.
    {
      const SimTime begin = fabric.sim.now();
      const auto installs_before = a.agent->stats().key_installs;
      fabric.controller.update_port_key(kA, kPortA, kB, [](Status) {});
      fabric.run_all();
      if (a.agent->stats().key_installs > installs_before) {
        port_update.add((a.agent->stats().last_key_install - begin).ms());
      }
    }
  }

  KmpRttResult result;
  result.local_init_ms = local_init.mean();
  result.local_update_ms = local_update.mean();
  result.port_init_ms = port_init.mean();
  result.port_update_ms = port_update.mean();
  result.samples = static_cast<int>(local_init.count());
  if (options.telemetry != nullptr) options.telemetry->stamp(fabric.sim.now());
  return result;
}

namespace {

/// Builds an m-switch, n-link fabric with round-robin link placement.
struct ScalingTopology {
  std::unique_ptr<Fabric> fabric;
  struct LinkRef {
    NodeId a;
    PortId port_a;
    NodeId b;
    PortId port_b;
  };
  std::vector<LinkRef> links;
};

ScalingTopology build_scaling_topology(int switches, int links, std::uint64_t seed,
                                       int shards = 1, int shard_workers = 0) {
  ScalingTopology topology;
  Fabric::Options options;
  options.seed = seed;
  options.ports_per_switch = 2 * links / std::max(1, switches) + 4;
  options.shards = shards;
  options.shard_workers = shard_workers;
  topology.fabric = std::make_unique<Fabric>(options);
  for (int i = 1; i <= switches; ++i) {
    topology.fabric->add_switch(NodeId{static_cast<std::uint16_t>(i)}, null_program());
  }
  std::vector<std::uint16_t> next_port(static_cast<std::size_t>(switches) + 1, 1);
  for (int j = 0; j < links; ++j) {
    const auto a = static_cast<std::uint16_t>(j % switches + 1);
    auto b = static_cast<std::uint16_t>((j + 1 + j / switches) % switches + 1);
    if (b == a) b = static_cast<std::uint16_t>(a % switches + 1);
    const PortId port_a{next_port[a]++};
    const PortId port_b{next_port[b]++};
    topology.fabric->connect(NodeId{a}, port_a, NodeId{b}, port_b);
    topology.links.push_back(ScalingTopology::LinkRef{NodeId{a}, port_a, NodeId{b}, port_b});
  }
  return topology;
}

}  // namespace

KmpMakespan run_kmp_makespan_experiment(int switches, int links, std::uint64_t seed,
                                        int shards, int shard_workers) {
  KmpMakespan result;
  result.switches = switches;
  result.links = links;

  // Sequential: one exchange at a time (what Fabric::init_all_keys does).
  {
    auto topology = build_scaling_topology(switches, links, seed, shards, shard_workers);
    const SimTime begin = topology.fabric->sim.now();
    if (!topology.fabric->init_all_keys().ok()) return result;
    result.sequential_ms = (topology.fabric->sim.now() - begin).ms();
  }

  // Parallel: all local inits issued together, then all port inits
  // together (exchanges are per-switch/per-port independent).
  {
    auto topology = build_scaling_topology(switches, links, seed, shards, shard_workers);
    auto& fabric = *topology.fabric;
    const SimTime begin = fabric.sim.now();
    int done = 0;
    for (int i = 1; i <= switches; ++i) {
      fabric.controller.init_local_key(NodeId{static_cast<std::uint16_t>(i)},
                                       [&done](Result<Key64> r) { done += r.ok() ? 1 : 0; });
    }
    fabric.run_all();
    if (done != switches) return result;
    int port_done = 0;
    for (const auto& link : topology.links) {
      fabric.controller.init_port_key(link.a, link.port_a, link.b, link.port_b,
                                      [&port_done](Status s) { port_done += s.ok() ? 1 : 0; });
    }
    fabric.run_all();
    if (port_done != links) return result;
    result.parallel_ms = (fabric.sim.now() - begin).ms();
  }

  result.speedup =
      result.parallel_ms > 0 ? result.sequential_ms / result.parallel_ms : 0;
  return result;
}

KmpScalingResult run_kmp_scaling_experiment(int switches, int links, std::uint64_t seed,
                                            int shards, int shard_workers) {
  auto topology = build_scaling_topology(switches, links, seed, shards, shard_workers);
  Fabric& fabric = *topology.fabric;

  // Count DP-DP KeyExchange frames crossing any link (port-key updates run
  // below the controller; Table III counts them too). Atomics: under a
  // sharded run the tamper hooks of links homed on different shards fire
  // concurrently, and totals are order-independent.
  auto dp_messages = std::make_shared<std::atomic<std::uint64_t>>(0);
  auto dp_bytes = std::make_shared<std::atomic<std::uint64_t>>(0);
  const auto counter = [dp_messages, dp_bytes](Bytes& frame) {
    if (!frame.empty() && frame[0] == 2) {  // HdrType::KeyExchange
      dp_messages->fetch_add(1, std::memory_order_relaxed);
      dp_bytes->fetch_add(frame.size(), std::memory_order_relaxed);
    }
    return netsim::TamperVerdict::Pass;
  };
  for (const auto& ref : topology.links) {
    netsim::Link* link = fabric.net.link_at(ref.a, ref.port_a);
    link->set_tamper(ref.a, counter);
    link->set_tamper(ref.b, counter);
  }

  KmpScalingResult result;
  result.switches = switches;
  result.links = links;

  // --- initialization phase: every local key, then every port key.
  if (!fabric.init_all_keys().ok()) return result;
  const auto& stats = fabric.controller.stats();
  result.init_messages =
      stats.kmp_messages_sent + stats.kmp_messages_received + dp_messages->load();
  result.init_bytes = stats.kmp_bytes_sent + stats.kmp_bytes_received + dp_bytes->load();

  // --- update phase: every local key, then every port key.
  const auto sent_before = stats.kmp_messages_sent + stats.kmp_messages_received;
  const auto bytes_before = stats.kmp_bytes_sent + stats.kmp_bytes_received;
  const auto dp_before = dp_messages->load();
  const auto dp_bytes_before = dp_bytes->load();

  for (int i = 1; i <= switches; ++i) {
    fabric.controller.update_local_key(NodeId{static_cast<std::uint16_t>(i)},
                                       [](Result<Key64>) {});
    fabric.run_all();
  }
  for (const auto& link : topology.links) {
    fabric.controller.update_port_key(link.a, link.port_a, link.b, [](Status) {});
    fabric.run_all();
  }

  result.update_messages =
      stats.kmp_messages_sent + stats.kmp_messages_received + dp_messages->load() -
      sent_before - dp_before;
  result.update_bytes = stats.kmp_bytes_sent + stats.kmp_bytes_received + dp_bytes->load() -
                        bytes_before - dp_bytes_before;
  return result;
}

}  // namespace p4auth::experiments
