#include "experiments/hula_experiment.hpp"

#include <algorithm>
#include <cmath>

#include "apps/hula/hula.hpp"
#include "attacks/link_mitm.hpp"
#include "experiments/fabric.hpp"

namespace p4auth::experiments {
namespace hula = apps::hula;

const char* scenario_name(Scenario scenario) {
  switch (scenario) {
    case Scenario::Baseline: return "no-adversary";
    case Scenario::Attack: return "with-adversary";
    case Scenario::P4AuthAttack: return "adversary+p4auth";
    case Scenario::P4AuthClean: return "p4auth-clean";
  }
  return "?";
}

namespace {

constexpr NodeId kS1{1}, kS2{2}, kS3{3}, kS4{4}, kS5{5};
constexpr PortId kHostPort{9};

/// Encodes a data packet padded to its declared size so link
/// serialization and queueing see the real byte volume. The frame is
/// born at its padded size (zeros past the header): one allocation.
Bytes encode_padded_data(const hula::DataPacket& packet) {
  Bytes frame(std::max<std::size_t>(hula::kDataSize, packet.size_bytes));
  hula::encode_data_to(packet, frame);
  return frame;
}

Fabric::ProgramFactory make_hula(NodeId self, bool is_tor, std::vector<PortId> probe_ports) {
  return [self, is_tor, probe_ports = std::move(probe_ports)](
             dataplane::RegisterFile& registers) -> std::unique_ptr<dataplane::DataPlaneProgram> {
    hula::HulaProgram::Config config;
    config.self = self;
    config.is_tor = is_tor;
    config.probe_ports = probe_ports;
    config.util_window = SimTime::from_ms(2);
    config.capacity_bytes_per_window = 2.0 * 125'000.0;  // 1 Gb/s x 2 ms
    config.entry_timeout = SimTime::from_ms(3);
    config.flowlet_timeout = SimTime::from_us(300);
    return std::make_unique<hula::HulaProgram>(config, registers);
  };
}

}  // namespace

HulaResult run_hula_experiment(Scenario scenario, const HulaOptions& options) {

  Fabric::Options fabric_options;
  fabric_options.p4auth = p4auth_on(scenario);
  fabric_options.seed = options.seed;
  fabric_options.protected_magics = {hula::kProbeMagic};
  fabric_options.telemetry = options.telemetry;
  fabric_options.shards = options.shards;
  fabric_options.shard_workers = options.shard_workers;
  fabric_options.shard_assignment = options.shard_assignment;
  Fabric fabric(fabric_options);

  // S1 ports: 1->S2, 2->S3, 3->S4. S5 ports: 1->S2, 2->S3, 3->S4.
  // Middle switches: port 1 -> S1, port 2 -> S5.
  auto& s1 = fabric.add_switch(kS1, make_hula(kS1, /*is_tor=*/true, {}));
  fabric.add_switch(kS2, make_hula(kS2, false, {PortId{1}, PortId{2}}));
  fabric.add_switch(kS3, make_hula(kS3, false, {PortId{1}, PortId{2}}));
  fabric.add_switch(kS4, make_hula(kS4, false, {PortId{1}, PortId{2}}));
  fabric.add_switch(kS5, make_hula(kS5, /*is_tor=*/true, {PortId{1}, PortId{2}, PortId{3}}));

  netsim::LinkConfig link;
  link.latency = SimTime::from_us(20);
  link.bandwidth_gbps = 1.0;
  fabric.connect(kS1, PortId{1}, kS2, PortId{1}, link);
  fabric.connect(kS1, PortId{2}, kS3, PortId{1}, link);
  netsim::Link* s4_s1 = fabric.connect(kS1, PortId{3}, kS4, PortId{1}, link);
  netsim::Link* s2_s5 = fabric.connect(kS2, PortId{2}, kS5, PortId{1}, link);
  netsim::Link* s3_s5 = fabric.connect(kS3, PortId{2}, kS5, PortId{2}, link);
  netsim::Link* s4_s5 = fabric.connect(kS4, PortId{2}, kS5, PortId{3}, link);

  if (auto status = fabric.init_all_keys(); !status.ok()) {
    return HulaResult{};  // surfaces as all-zero shares; tests assert on setup separately
  }

  if (adversary_on(scenario)) {
    // The Fig 3 MitM on the S4-S1 link rewrites probes heading to S1.
    s4_s1->set_tamper(kS4, attacks::make_probe_util_rewriter(options.forged_util));
  }

  // Probe rounds from S5.
  const auto probe_gen = hula::encode_probe_gen();
  for (SimTime t = SimTime::from_us(50); t < options.duration; t += options.probe_period) {
    fabric.net.inject(kS5, kHostPort, probe_gen, t);
  }

  // Background cross-traffic entering each middle switch toward S5. This
  // is what loads the middle->S5 links; probes report it, the adversary
  // hides it.
  Xoshiro256 bg_rng(options.seed * 104729 + 5);
  const double link_bytes_per_second = 1e9 / 8.0;  // 1 Gb/s links
  const double bg_pps = options.background_load_fraction * link_bytes_per_second /
                        static_cast<double>(options.data_packet_bytes);
  for (const NodeId middle : {kS2, kS3, kS4}) {
    double bg_t = 100e-6;
    std::uint64_t bg_flow = 1'000'000ull * middle.value;
    while (bg_t < options.duration.seconds()) {
      hula::DataPacket packet;
      packet.dst_tor = kS5;
      packet.flow_id = bg_flow + static_cast<std::uint64_t>(bg_t * 1e4);
      packet.size_bytes = options.data_packet_bytes;
      fabric.net.inject(middle, kHostPort, encode_padded_data(packet),
                        SimTime::from_ns(static_cast<std::uint64_t>(bg_t * 1e9)));
      double u = bg_rng.next_double();
      if (u <= 0.0) u = 1e-12;
      bg_t += -std::log(u) / bg_pps;
    }
  }

  // Data workload from S1 toward S5: Poisson packet arrivals, flows that
  // turn over so new flowlets keep consulting the best-hop table.
  Xoshiro256 rng(options.seed * 1299721 + 17);
  const double mean_gap_s = 1.0 / options.data_packets_per_second;
  double t_s = 200e-6;  // let the first probe round land first
  std::uint64_t flow = 1;
  double packets_left_in_flow = options.mean_flow_packets;
  while (t_s < options.duration.seconds()) {
    hula::DataPacket packet;
    packet.dst_tor = kS5;
    packet.flow_id = flow;
    packet.size_bytes = options.data_packet_bytes;
    fabric.net.inject(kS1, kHostPort, encode_padded_data(packet),
                      SimTime::from_ns(static_cast<std::uint64_t>(t_s * 1e9)));
    double u = rng.next_double();
    if (u <= 0.0) u = 1e-12;
    t_s += -mean_gap_s * std::log(u);
    if (--packets_left_in_flow <= 0) {
      ++flow;
      packets_left_in_flow = options.mean_flow_packets * (0.5 + rng.next_double());
    }
  }

  fabric.run_all();

  HulaResult result;
  auto* s1_hula = static_cast<hula::HulaProgram*>(s1.agent->inner());
  const auto& egress = s1_hula->stats().egress_bytes;
  std::array<std::uint64_t, 3> bytes{};
  for (int path = 0; path < 3; ++path) {
    const auto it = egress.find(PortId{static_cast<std::uint16_t>(path + 1)});
    bytes[static_cast<std::size_t>(path)] = it != egress.end() ? it->second : 0;
    result.total_bytes += bytes[static_cast<std::size_t>(path)];
  }
  for (int path = 0; path < 3; ++path) {
    result.path_share_pct[static_cast<std::size_t>(path)] =
        result.total_bytes == 0
            ? 0.0
            : 100.0 * static_cast<double>(bytes[static_cast<std::size_t>(path)]) /
                  static_cast<double>(result.total_bytes);
  }
  auto* s5_hula = static_cast<hula::HulaProgram*>(fabric.at(kS5).agent->inner());
  result.delivered = s5_hula->stats().data_delivered;
  result.probes_rejected = s1.agent->stats().feedback_rejected;
  result.unauth_probes_dropped = s1.agent->stats().unauth_feedback_dropped;
  result.alerts = fabric.controller.alerts().size();
  result.s4_path_queue_us = s4_s5->queue_stats(kS4).mean_wait_us();
  result.other_paths_queue_us =
      (s2_s5->queue_stats(kS2).mean_wait_us() + s3_s5->queue_stats(kS3).mean_wait_us()) / 2.0;
  fabric.collect_telemetry();
  return result;
}

}  // namespace p4auth::experiments
