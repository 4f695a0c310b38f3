#include "experiments/routescout_experiment.hpp"

#include <cmath>

#include "apps/routescout/routescout.hpp"
#include "attacks/control_plane_mitm.hpp"
#include "experiments/fabric.hpp"
#include "netsim/traffic.hpp"

namespace p4auth::experiments {
namespace rs = apps::routescout;

namespace {
constexpr NodeId kEdge{1};
constexpr PortId kHostPort{9};
}  // namespace

RouteScoutResult run_routescout_experiment(Scenario scenario,
                                           const RouteScoutOptions& options) {

  Fabric::Options fabric_options;
  fabric_options.p4auth = p4auth_on(scenario);
  fabric_options.seed = options.seed;
  fabric_options.telemetry = options.telemetry;
  Fabric fabric(fabric_options);

  rs::RouteScoutProgram* program = nullptr;
  auto& edge = fabric.add_switch(kEdge, [&](dataplane::RegisterFile& registers) {
    rs::RouteScoutProgram::Config config;
    config.path_ports = {PortId{1}, PortId{2}};
    auto p = std::make_unique<rs::RouteScoutProgram>(config, registers);
    program = p.get();
    return p;
  });
  (void)program->expose_to(*edge.agent);

  if (auto status = fabric.init_all_keys(); !status.ok()) return RouteScoutResult{};

  // The adversary arms itself only after the clean epochs, like a stealthy
  // implant waiting for normal operation to settle.
  auto attack_active = std::make_shared<bool>(false);
  if (adversary_on(scenario)) {
    edge.sw->set_os_interposer(attacks::make_report_inflater(
        rs::kLatSumReg,
        [attack_active, factor = options.inflate_factor](std::uint32_t index,
                                                         std::uint64_t value) {
          if (!*attack_active || index != 0) return value;
          return static_cast<std::uint64_t>(static_cast<double>(value) * factor);
        }));
  }

  const SimTime start = fabric.sim.now();
  const SimTime attack_start =
      start + options.epoch_gap +
      SimTime::from_ns(options.epoch_gap.ns() * static_cast<std::uint64_t>(options.clean_epochs));
  const SimTime end =
      attack_start + SimTime::from_ns(options.epoch_gap.ns() *
                                      static_cast<std::uint64_t>(options.attacked_epochs + 1));

  // Ground-truth latency telemetry: one sample per path every 5 ms with
  // ±10% jitter (what RouteScout's passive measurement would produce).
  Xoshiro256 rng(options.seed * 48611 + 3);
  for (SimTime t = start + SimTime::from_ms(1); t < end; t += SimTime::from_ms(5)) {
    for (std::uint8_t path = 0; path < 2; ++path) {
      const double base = path == 0 ? options.path1_latency_us : options.path2_latency_us;
      const double jitter = 0.9 + 0.2 * rng.next_double();
      rs::RsSample sample{path, static_cast<std::uint32_t>(base * jitter)};
      fabric.net.inject(kEdge, kHostPort, rs::encode_sample(sample), t - start);
    }
  }

  // Data workload: the CAIDA-trace substitute (DESIGN.md §2) — Poisson
  // flow arrivals with Pareto flow lengths and bimodal packet sizes.
  netsim::TraceGenerator::Config trace_config;
  trace_config.duration = end;
  trace_config.flows_per_second =
      options.data_packets_per_second / 12.0;  // ~12 packets per flow
  netsim::TraceGenerator generator(options.seed * 7 + 3, trace_config);
  for (const auto& packet : generator.generate()) {
    rs::RsData data{packet.flow_id, packet.size_bytes};
    fabric.net.inject(kEdge, kHostPort, rs::encode_data(data), packet.time);
  }

  // Controller epochs.
  rs::RouteScoutManager manager(fabric.controller, kEdge, 2);
  const int total_epochs = options.clean_epochs + options.attacked_epochs;
  for (int epoch = 0; epoch < total_epochs; ++epoch) {
    const SimTime at = start + SimTime::from_ns(options.epoch_gap.ns() *
                                                static_cast<std::uint64_t>(epoch + 1));
    fabric.sim.at(at, [&manager] { manager.run_epoch([](Status) {}); });
  }
  fabric.sim.at(attack_start, [attack_active] { *attack_active = true; });

  // Snapshot path bytes at the attack boundary so shares reflect the
  // attacked phase only.
  std::array<std::uint64_t, 2> bytes_at_attack{};
  fabric.sim.at(attack_start, [&] {
    bytes_at_attack[0] = program->stats().path_bytes[0];
    bytes_at_attack[1] = program->stats().path_bytes[1];
  });

  fabric.run_all();

  RouteScoutResult result;
  const std::uint64_t delta0 = program->stats().path_bytes[0] - bytes_at_attack[0];
  const std::uint64_t delta1 = program->stats().path_bytes[1] - bytes_at_attack[1];
  const std::uint64_t total = delta0 + delta1;
  result.path_share_pct[0] = total ? 100.0 * static_cast<double>(delta0) / total : 0.0;
  result.path_share_pct[1] = total ? 100.0 * static_cast<double>(delta1) / total : 0.0;
  const auto& mgr_stats = manager.stats();
  result.epochs_completed = mgr_stats.epochs_completed;
  result.epochs_aborted = mgr_stats.epochs_aborted;
  if (mgr_stats.last_split.size() == 2) {
    result.final_split = {mgr_stats.last_split[0], mgr_stats.last_split[1]};
  }
  result.true_latency_us = {options.path1_latency_us, options.path2_latency_us};
  result.alerts = fabric.controller.alerts().size() +
                  fabric.controller.stats().response_digest_failures;
  fabric.collect_telemetry();
  return result;
}

}  // namespace p4auth::experiments
