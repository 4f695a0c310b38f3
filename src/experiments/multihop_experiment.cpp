#include "experiments/multihop_experiment.hpp"

#include "apps/hula/hula.hpp"
#include "common/stats.hpp"
#include "experiments/fabric.hpp"

namespace p4auth::experiments {
namespace hula = apps::hula;
namespace {

constexpr PortId kHostPort{9};

Fabric::ProgramFactory make_chain_hula(NodeId self, bool is_tor,
                                       std::vector<PortId> probe_ports) {
  return [self, is_tor, probe_ports = std::move(probe_ports)](
             dataplane::RegisterFile& registers) -> std::unique_ptr<dataplane::DataPlaneProgram> {
    hula::HulaProgram::Config config;
    config.self = self;
    config.is_tor = is_tor;
    config.probe_ports = probe_ports;
    return std::make_unique<hula::HulaProgram>(config, registers);
  };
}

/// Average probe traversal time over a chain with `hops` links.
double measure_chain(bool p4auth, int hops, int probes, const MultihopOptions& run_options) {
  Fabric::Options options;
  options.p4auth = p4auth;
  options.timing = dataplane::TimingModel::bmv2();
  options.seed = run_options.seed;
  options.protected_magics = {hula::kProbeMagic};
  options.shards = run_options.shards;
  options.shard_workers = run_options.shard_workers;
  Fabric fabric(options);

  const int n_switches = hops + 1;
  for (int i = 1; i <= n_switches; ++i) {
    const NodeId id{static_cast<std::uint16_t>(i)};
    std::vector<PortId> probe_ports;
    if (i < n_switches) probe_ports.push_back(PortId{2});  // forward along the chain
    fabric.add_switch(id, make_chain_hula(id, i == 1 || i == n_switches, probe_ports));
  }
  netsim::LinkConfig link;
  link.latency = SimTime::from_us(10);
  for (int i = 1; i < n_switches; ++i) {
    fabric.connect(NodeId{static_cast<std::uint16_t>(i)}, PortId{2},
                   NodeId{static_cast<std::uint16_t>(i + 1)}, PortId{1}, link);
  }
  if (!fabric.init_all_keys().ok()) return 0;

  auto* sink = static_cast<hula::HulaProgram*>(
      fabric.at(NodeId{static_cast<std::uint16_t>(n_switches)}).agent->inner());

  SampleSet traversal;
  for (int i = 0; i < probes; ++i) {
    const SimTime begin = fabric.sim.now();
    fabric.net.inject(NodeId{1}, kHostPort, hula::encode_probe_gen());
    fabric.run_all();
    if (sink->stats().last_probe_time > begin) {
      traversal.add((sink->stats().last_probe_time - begin).us());
    }
  }
  return traversal.mean();
}

}  // namespace

std::vector<MultihopPoint> run_multihop_experiment(const MultihopOptions& options) {
  std::vector<MultihopPoint> points;
  for (int hops = options.min_hops; hops <= options.max_hops; ++hops) {
    MultihopPoint point;
    point.hops = hops;
    point.base_us = measure_chain(false, hops, options.probes_per_point, options);
    point.p4auth_us = measure_chain(true, hops, options.probes_per_point, options);
    point.overhead_pct =
        point.base_us > 0 ? 100.0 * (point.p4auth_us - point.base_us) / point.base_us : 0;
    points.push_back(point);
  }
  return points;
}

SingleSwitchOverhead run_single_switch_overhead(std::uint64_t seed) {
  const auto measure = [seed](bool p4auth) -> double {
    Fabric::Options options;
    options.p4auth = p4auth;
    options.timing = dataplane::TimingModel::tofino();
    options.seed = seed;
    options.protected_magics = {hula::kProbeMagic};
    Fabric fabric(options);
    fabric.add_switch(NodeId{1}, make_chain_hula(NodeId{1}, true, {PortId{2}}));
    fabric.add_switch(NodeId{2}, make_chain_hula(NodeId{2}, true, {}));
    fabric.connect(NodeId{1}, PortId{2}, NodeId{2}, PortId{1});
    if (!fabric.init_all_keys().ok()) return 0;

    auto& receiver = fabric.at(NodeId{2});
    const SimTime before = receiver.sw->total_processing_time();
    fabric.net.inject(NodeId{1}, kHostPort, hula::encode_probe_gen());
    fabric.run_all();
    return static_cast<double>((receiver.sw->total_processing_time() - before).ns());
  };

  SingleSwitchOverhead result;
  result.base_ns = measure(false);
  result.p4auth_ns = measure(true);
  result.overhead_pct =
      result.base_ns > 0 ? 100.0 * (result.p4auth_ns - result.base_ns) / result.base_ns : 0;
  return result;
}

}  // namespace p4auth::experiments
