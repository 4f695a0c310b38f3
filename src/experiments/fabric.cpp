#include "experiments/fabric.hpp"

#include <algorithm>
#include <map>

#include "core/lldp.hpp"
#include "runner/runner.hpp"

namespace p4auth::experiments {

Key64 seed_key_for(NodeId id) { return 0x5EED000000000000ull + id.value; }

namespace {

controller::Controller::Config with_fabric_options(controller::Controller::Config config,
                                                   bool enabled, crypto::MacKind mac) {
  config.p4auth_enabled = enabled;
  config.mac = mac;
  return config;
}

}  // namespace

Fabric::Fabric(Options options)
    : controller(sim,
                 with_fabric_options(options.controller_config, options.p4auth, options.mac)),
      options_(std::move(options)) {
  net.set_telemetry(options_.telemetry);
  controller.set_telemetry(options_.telemetry);
  sim.set_telemetry(options_.telemetry);
  engine_ = std::make_unique<netsim::ShardedSimulator>(sim, 1, 1);
}

FabricSwitch& Fabric::add_switch(NodeId id, const ProgramFactory& make_inner) {
  auto& entry = switches_.emplace_back();
  entry.sw = net.add<netsim::Switch>(id, options_.timing, options_.seed * 7919 + id.value);

  core::P4AuthAgent::Config agent_config;
  agent_config.self = id;
  agent_config.k_seed = seed_key_for(id);
  agent_config.num_ports = options_.ports_per_switch;
  agent_config.auth_enabled = options_.p4auth;
  agent_config.encrypt_feedback = options_.encrypt_feedback;
  agent_config.mac = options_.mac;
  auto agent = std::make_unique<core::P4AuthAgent>(agent_config, entry.sw->registers(),
                                                   make_inner(entry.sw->registers()));
  entry.agent = agent.get();
  for (const std::uint8_t magic : options_.protected_magics) {
    entry.agent->add_protected_magic(magic);
  }
  entry.sw->set_program(std::move(agent));
  entry.sw->set_telemetry(options_.telemetry);

  entry.channel = std::make_unique<netsim::ControlChannel>(
      sim, *entry.sw, options_.channel,
      netsim::ControlChannel::kDefaultJitterSeed + options_.seed * 6151 + id.value);
  entry.channel->set_telemetry(options_.telemetry);
  controller.attach_switch(id, *entry.channel, seed_key_for(id),
                           options_.ports_per_switch);
  return entry;
}

netsim::Link* Fabric::connect(NodeId a, PortId port_a, NodeId b, PortId port_b,
                              netsim::LinkConfig config) {
  at(a).agent->set_neighbor(port_a, b);
  at(b).agent->set_neighbor(port_b, a);
  links_.push_back(LinkRecord{a, port_a, b, port_b});
  return net.connect(a, port_a, b, port_b, config);
}

FabricSwitch& Fabric::at(NodeId id) {
  for (auto& entry : switches_) {
    if (entry.sw->id() == id) return entry;
  }
  throw std::out_of_range("no such fabric switch");
}

void Fabric::finalize_shards() {
  if (shards_finalized_) return;
  shards_finalized_ = true;
  const int n = static_cast<int>(switches_.size());
  const int count = std::min(options_.shards, n);
  if (count <= 1) return;  // the constructor's one-shard engine stays

  // --- Partition: contiguous BFS chunks, or the explicit test override.
  // std::map keys the BFS starts and neighbor walks by ascending node id,
  // so the default partition is a pure function of the topology.
  std::map<std::uint32_t, std::vector<std::uint32_t>> adjacency;
  for (auto& entry : switches_) adjacency[entry.sw->id().value];
  for (const LinkRecord& l : links_) {
    adjacency[l.a.value].push_back(l.b.value);
    adjacency[l.b.value].push_back(l.a.value);
  }
  std::vector<std::pair<NodeId, int>> assignment;
  if (!options_.shard_assignment.empty()) {
    for (auto& entry : switches_) {
      int shard = 0;
      for (const auto& [id, s] : options_.shard_assignment) {
        if (id == entry.sw->id().value) shard = std::clamp(s, 0, count - 1);
      }
      assignment.emplace_back(entry.sw->id(), shard);
    }
  } else {
    std::vector<std::uint32_t> order;
    std::map<std::uint32_t, bool> visited;
    for (auto& [start, unused] : adjacency) {
      (void)unused;
      if (visited[start]) continue;
      std::vector<std::uint32_t> queue{start};
      visited[start] = true;
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const std::uint32_t id = queue[head];
        order.push_back(id);
        std::vector<std::uint32_t> neighbors = adjacency[id];
        std::sort(neighbors.begin(), neighbors.end());
        for (const std::uint32_t next : neighbors) {
          if (!visited[next]) {
            visited[next] = true;
            queue.push_back(next);
          }
        }
      }
    }
    // Balanced contiguous chunks: the first (n % count) shards take one
    // extra node, so BFS-adjacent switches share a shard.
    const int base = n / count;
    const int rem = n % count;
    std::size_t cursor = 0;
    for (int k = 0; k < count; ++k) {
      const int size = base + (k < rem ? 1 : 0);
      for (int i = 0; i < size; ++i) {
        // `order` holds NodeId values, so the cast loses nothing.
        assignment.emplace_back(NodeId{static_cast<std::uint16_t>(order[cursor++])}, k);
      }
    }
  }
  const auto home_of = [&assignment](NodeId id) {
    for (const auto& [node, shard] : assignment) {
      if (node == id) return shard;
    }
    return 0;
  };

  // --- Lookahead: the minimum cross-shard delivery delay. Link hops add
  // queueing + serialization on top of latency, and channel legs add
  // per-byte cost on top of the (jitter-floored) base, so the minima
  // below are true lower bounds for every cut edge.
  SimTime lookahead{};
  bool first = true;
  const auto fold = [&lookahead, &first](SimTime floor) {
    if (first || floor < lookahead) lookahead = floor;
    first = false;
  };
  for (const LinkRecord& l : links_) {
    if (home_of(l.a) == home_of(l.b)) continue;
    if (const netsim::Link* link = net.link_at(l.a, l.port_a)) {
      fold(link->config().latency);
    }
  }
  for (auto& entry : switches_) {
    if (home_of(entry.sw->id()) == 0) continue;  // controller shares shard 0
    const netsim::ChannelModel& model = entry.channel->model();
    fold(model.min_delay(model.to_switch_base));
    fold(model.min_delay(model.to_controller_base));
  }
  // No conservative window exists when a cut edge has zero delay, or
  // when the partition produced no cut edges at all (every switch landed
  // on shard 0) and the fold never ran: keep the one-shard engine, which
  // full-drains its lone heap without windows.
  if (lookahead.ns() == 0) return;

  // --- Engine, worker pool, per-shard telemetry.
  const int workers = runner::resolve_shard_workers(options_.shard_workers, count, /*jobs=*/1);
  engine_ = std::make_unique<netsim::ShardedSimulator>(sim, count, workers);
  engine_->set_lookahead(lookahead);

  std::vector<telemetry::Telemetry*> bundles(static_cast<std::size_t>(count), nullptr);
  if (options_.telemetry != nullptr) {
    bundles[0] = options_.telemetry;
    for (int k = 1; k < count; ++k) {
      // Same trace capacity as the user bundle: the merge keeps the last
      // capacity() records, which only reproduces the single-timeline
      // ring if no shard truncated earlier than the merged ring would.
      shard_bundles_.push_back(
          std::make_unique<telemetry::Telemetry>(options_.telemetry->trace.capacity()));
      engine_->shard(k).set_telemetry(shard_bundles_.back().get());
      bundles[static_cast<std::size_t>(k)] = shard_bundles_.back().get();
    }
  }

  // --- Rewire every component onto its home shard.
  net.configure_shards(engine_->shard_sims(), bundles, assignment);
  for (auto& entry : switches_) {
    const int home = home_of(entry.sw->id());
    entry.sw->set_telemetry(bundles[static_cast<std::size_t>(home)]);
    entry.channel->set_switch_sim(engine_->shard(home));
  }
}

void Fabric::run_all() {
  finalize_shards();
  engine_->run();
}

void Fabric::collect_telemetry() {
  if (options_.telemetry == nullptr) return;
  net.export_pool_stats();
  for (netsim::Simulator* shard_sim : engine_->shard_sims()) shard_sim->export_stats();
  std::vector<const telemetry::Telemetry*> others;
  others.reserve(shard_bundles_.size());
  for (const auto& bundle : shard_bundles_) others.push_back(bundle.get());
  telemetry::merge_shard_telemetry(*options_.telemetry, others);
  options_.telemetry->stamp(sim.now());
}

void Fabric::discover_topology() {
  // Partition before the first send: every channel and network entry
  // point must already route to the switches' home shards, or the first
  // exchange runs on shard 0 against switches that finalize_shards() is
  // about to re-home (stale shard clocks, lost spans).
  finalize_shards();
  const Bytes trigger = core::encode_lldp_gen();
  for (auto& entry : switches_) {
    // Injected on a high host-facing port; the agent answers by
    // announcing on every fabric port.
    net.inject(entry.sw->id(), PortId{static_cast<std::uint16_t>(options_.ports_per_switch + 1)},
               trigger);
  }
  run_all();
}

Status Fabric::init_all_keys() {
  finalize_shards();  // same pre-send invariant as discover_topology()
  if (!options_.p4auth) return {};
  for (auto& entry : switches_) {
    std::optional<Result<Key64>> result;
    controller.init_local_key(entry.sw->id(),
                              [&](Result<Key64> r) { result = std::move(r); });
    run_all();
    if (!result.has_value() || !result->ok()) {
      return make_error("local key init failed for switch " +
                        std::to_string(entry.sw->id().value));
    }
  }
  for (const auto& link : links_) {
    std::optional<Status> result;
    controller.init_port_key(link.a, link.port_a, link.b, link.port_b,
                             [&](Status s) { result = std::move(s); });
    run_all();
    if (!result.has_value() || !result->ok()) {
      return make_error("port key init failed");
    }
  }
  return {};
}

}  // namespace p4auth::experiments
