// micro_shards — parallel sharded-simulator scaling: events/s vs shard
// count on a multi-hop fabric.
//
// The workload is a 12-switch HULA chain (P4Auth on, so every hop pays
// real digest work over a probe trace that grows with the path) with a
// steady stream of probes in flight. Probes pipeline through the chain,
// so with a contiguous partition every shard stays busy and the only
// cross-shard traffic is the boundary links — the shape the
// conservative-lookahead engine is built for.
//
// Every row runs the byte-identical schedule (the engine's determinism
// contract), so the event counts must agree across shard counts; the
// bench exits non-zero if they do not. The rows keyed "metric" carry the
// scaling floors gated by tools/check_bench.py against
// bench/baselines/micro_shards.json in release CI.
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/hula/hula.hpp"
#include "experiments/fabric.hpp"
#include "report.hpp"

using namespace p4auth;
using namespace p4auth::experiments;
namespace hula = apps::hula;

namespace {

constexpr int kSwitches = 12;
constexpr PortId kHostPort{9};
constexpr SimTime kDuration = SimTime::from_ms(40);
constexpr SimTime kProbePeriod = SimTime::from_us(1);

Fabric::ProgramFactory chain_program(NodeId self, bool is_tor, std::vector<PortId> probe_ports) {
  return [self, is_tor, probe_ports = std::move(probe_ports)](
             dataplane::RegisterFile& registers) -> std::unique_ptr<dataplane::DataPlaneProgram> {
    hula::HulaProgram::Config config;
    config.self = self;
    config.is_tor = is_tor;
    config.probe_ports = probe_ports;
    return std::make_unique<hula::HulaProgram>(config, registers);
  };
}

struct ShardRun {
  int shards = 0;
  std::size_t events = 0;
  double wall_ms = 0;
  double events_per_sec = 0;
};

ShardRun run_chain(int shards) {
  Fabric::Options options;
  options.p4auth = true;
  options.timing = dataplane::TimingModel::bmv2();
  options.seed = 1;
  options.protected_magics = {hula::kProbeMagic};
  options.shards = shards;
  Fabric fabric(options);

  for (int i = 1; i <= kSwitches; ++i) {
    const NodeId id{static_cast<std::uint16_t>(i)};
    std::vector<PortId> probe_ports;
    if (i < kSwitches) probe_ports.push_back(PortId{2});
    fabric.add_switch(id, chain_program(id, i == 1 || i == kSwitches, probe_ports));
  }
  netsim::LinkConfig link;
  link.latency = SimTime::from_us(40);  // == the engine's lookahead window
  for (int i = 1; i < kSwitches; ++i) {
    fabric.connect(NodeId{static_cast<std::uint16_t>(i)}, PortId{2},
                   NodeId{static_cast<std::uint16_t>(i + 1)}, PortId{1}, link);
  }
  if (!fabric.init_all_keys().ok()) {
    std::fprintf(stderr, "micro_shards: key init failed\n");
    std::exit(2);
  }

  const auto probe_gen = hula::encode_probe_gen();
  for (SimTime t = SimTime::from_us(100); t < kDuration; t += kProbePeriod) {
    fabric.net.inject(NodeId{1}, kHostPort, probe_gen, t);
  }

  const std::size_t before = fabric.engine()->processed();
  const auto start = std::chrono::steady_clock::now();
  fabric.run_all();
  const auto stop = std::chrono::steady_clock::now();
  const std::size_t after = fabric.engine()->processed();

  ShardRun run;
  run.shards = shards;
  run.events = after - before;
  run.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  run.events_per_sec = run.wall_ms > 0 ? 1e3 * static_cast<double>(run.events) / run.wall_ms : 0;
  return run;
}

}  // namespace

int main() {
  bench::title("micro_shards — sharded simulator scaling (events/s vs shards)");
  bench::note("12-switch HULA chain, P4Auth on, steady probe pipeline; the");
  bench::note("schedule is byte-identical for every shard count, only the");
  bench::note("wall-clock changes.");
  bench::rule();

  bench::JsonReport report("micro_shards");
  std::printf("%-8s %14s %12s %16s %10s\n", "shards", "events", "wall ms", "events/s", "speedup");

  const int configs[] = {1, 2, 4};
  std::vector<ShardRun> runs;
  for (const int shards : configs) runs.push_back(run_chain(shards));

  for (const ShardRun& run : runs) {
    const double speedup =
        runs[0].events_per_sec > 0 ? run.events_per_sec / runs[0].events_per_sec : 0;
    std::printf("%-8d %14zu %12.1f %16.0f %9.2fx\n", run.shards, run.events, run.wall_ms,
                run.events_per_sec, speedup);
    report.row()
        .field("config", "shards=" + std::to_string(run.shards))
        .field("shards", static_cast<std::int64_t>(run.shards))
        .field("events", static_cast<std::uint64_t>(run.events))
        .field("wall_ms", run.wall_ms)
        .field("events_per_sec", run.events_per_sec)
        .field("speedup", speedup);
  }

  bool deterministic = true;
  for (const ShardRun& run : runs) deterministic = deterministic && run.events == runs[0].events;
  if (!deterministic) {
    std::fprintf(stderr,
                 "micro_shards: event counts diverged across shard counts — "
                 "the determinism contract is broken\n");
    return 1;
  }

  // The gated rows: check_bench matches on "metric" and floors "value"
  // (baseline 1.8 / 3.34 with the default 25%% tolerance => floors of
  // ~1.35x at 2 shards and ~2.5x at 4 shards).
  const double speedup_2 = runs[1].events_per_sec / runs[0].events_per_sec;
  const double speedup_4 = runs[2].events_per_sec / runs[0].events_per_sec;
  report.row().field("metric", "speedup_2shard").field("value", speedup_2);
  report.row().field("metric", "speedup_4shard").field("value", speedup_4);

  bench::rule();
  std::printf("speedup at 2 shards: %.2fx   at 4 shards: %.2fx   (target: >= 2.5x at 4)\n",
              speedup_2, speedup_4);
  return 0;
}
