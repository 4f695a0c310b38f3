#include "experiments/table1_experiment.hpp"

#include <memory>
#include <optional>

#include "apps/blink/blink.hpp"
#include "apps/flowradar/flowradar.hpp"
#include "apps/flowstats/flowstats.hpp"
#include "apps/netcache/netcache.hpp"
#include "apps/silkroad/silkroad.hpp"
#include "attacks/control_plane_mitm.hpp"
#include "experiments/fabric.hpp"
#include "experiments/routescout_experiment.hpp"

namespace p4auth::experiments {
namespace {

constexpr NodeId kSw{1};
constexpr PortId kHostPort{9};

/// One run's metric, and whether any attack was detected in it.
struct RowRun {
  double value = 0;
  bool detected = false;
};

/// A row's three runs: no attack, attack, attack under P4Auth. The
/// baseline's detection flag is not reported.
Table1Row three_runs(std::string system, std::string metric,
                     RowRun (*run)(Scenario, std::uint64_t), std::uint64_t seed) {
  Table1Row row;
  row.system = std::move(system);
  row.metric = std::move(metric);
  row.baseline = run(Scenario::Baseline, seed).value;
  const RowRun attacked = run(Scenario::Attack, seed);
  const RowRun protected_run = run(Scenario::P4AuthAttack, seed);
  row.attacked = attacked.value;
  row.with_p4auth = protected_run.value;
  row.detected_without = attacked.detected;
  row.detected_with = protected_run.detected;
  return row;
}

/// `options` with P4Auth as `scenario` has it and the run's seed.
Fabric::Options run_options(Scenario scenario, std::uint64_t seed, Fabric::Options options) {
  options.p4auth = p4auth_on(scenario);
  options.seed = seed;
  return options;
}

/// The set-up every single-switch run shares: a fresh fabric with the
/// app on switch S1, its registers exposed to S1's agent, keys up.
template <typename Program>
struct AppFabric {
  Fabric fabric;
  FabricSwitch* sw = nullptr;
  Program* program = nullptr;
  bool keys_ok = false;

  AppFabric(Scenario scenario, std::uint64_t seed, typename Program::Config config = {},
            Fabric::Options options = {})
      : fabric(run_options(scenario, seed, std::move(options))) {
    sw = &fabric.add_switch(kSw, [&](dataplane::RegisterFile& registers) {
      auto p = std::make_unique<Program>(config, registers);
      program = p.get();
      return p;
    });
    (void)program->expose_to(*sw->agent);
    keys_ok = fabric.init_all_keys().ok();
  }

  /// Detection signal: any data-plane alert or controller-side digest
  /// failure observed.
  bool detected() const {
    return !fabric.controller.alerts().empty() ||
           fabric.controller.stats().response_digest_failures > 0;
  }
};

/// Rewrites every value, one shot per message.
attacks::ValueTransform every_value(std::uint32_t shots,
                                    std::uint64_t (*rewrite)(std::uint64_t value)) {
  return attacks::counted_implant(shots, [rewrite](std::uint32_t, std::uint64_t value) {
    return std::optional<std::uint64_t>(rewrite(value));
  });
}

// --- Row 1: FRR (RouteScout) -------------------------------------------------

RowRun routescout_run(Scenario scenario, std::uint64_t seed) {
  RouteScoutOptions options;
  options.seed = seed;
  options.clean_epochs = 2;
  options.attacked_epochs = 3;
  options.data_packets_per_second = 2000;
  const auto result = run_routescout_experiment(scenario, options);
  return {result.path_share_pct[1], result.alerts > 0};
}

// --- Row 1b: FRR (Blink) -------------------------------------------------------

RowRun blink_run(Scenario scenario, std::uint64_t seed) {
  namespace bk = apps::blink;
  AppFabric<bk::BlinkProgram> app(scenario, seed);
  if (!app.keys_ok) return {-1, false};

  if (adversary_on(scenario)) {
    // Rewrite the primary next hop in the controller's per-prefix list
    // update: traffic for the prefix is hijacked to the attacker's port.
    app.sw->sw->set_os_interposer(attacks::make_write_value_tamper(
        bk::kNextHopsReg,
        attacks::counted_implant(1, [](std::uint32_t, std::uint64_t value) {
          // Attacker's port 7, stored as +1.
          return value != 0 ? std::optional<std::uint64_t>(8) : std::nullopt;
        })));
  }

  bk::BlinkManager manager(app.fabric.controller, kSw);
  (void)retry_sync(app.fabric, 3, [&](auto done) {
    manager.install_next_hops(1, {PortId{1}, PortId{2}, PortId{3}}, done);
  });

  for (int i = 0; i < 200; ++i) {
    app.fabric.net.inject(kSw, kHostPort,
                          bk::encode_packet({1, static_cast<std::uint64_t>(i), false}),
                          SimTime::from_us(static_cast<std::uint64_t>(5 * i)));
  }
  app.fabric.run_all();

  const auto& stats = app.program->stats();
  const auto it = stats.egress_packets.find(PortId{1});
  const double on_primary =
      it != stats.egress_packets.end() ? static_cast<double>(it->second) : 0.0;
  const double total = static_cast<double>(stats.forwarded);
  return {total > 0 ? 100.0 * on_primary / total : 0.0, app.detected()};
}

// --- Row 2: LB (SilkRoad) -----------------------------------------------------

RowRun silkroad_run(Scenario scenario, std::uint64_t seed) {
  namespace slk = apps::silkroad;
  AppFabric<slk::SilkRoadProgram> app(scenario, seed);
  if (!app.keys_ok) return {-1, false};

  if (adversary_on(scenario)) {
    // The implant rewrites the transit-table *clear* (0) into a set (1),
    // stranding new connections on the draining old pool.
    app.sw->sw->set_os_interposer(attacks::make_write_value_tamper(
        slk::kTransitReg,
        attacks::counted_implant(1, [](std::uint32_t, std::uint64_t value) {
          return value == 0 ? std::optional<std::uint64_t>(1) : std::nullopt;
        })));
  }

  slk::SilkRoadManager manager(app.fabric.controller, kSw);
  (void)retry_sync(app.fabric, 3, [&](auto done) { manager.begin_migration(1, done); });

  // Pending connections arrive during migration (correctly pinned to the
  // old pool), then the migration finishes.
  for (int i = 0; i < 50; ++i) {
    app.fabric.net.inject(kSw, kHostPort,
                          slk::encode_conn({1, 1000ull + static_cast<std::uint64_t>(i)}),
                          SimTime::from_us(static_cast<std::uint64_t>(10 * i)));
  }
  app.fabric.run_all();

  (void)retry_sync(app.fabric, 3, [&](auto done) { manager.finish_migration(1, done); });

  // New connections after the migration completed must use the new pool.
  const auto old_before = app.program->stats().to_old_pool;
  const auto new_before = app.program->stats().to_new_pool;
  for (int i = 0; i < 200; ++i) {
    app.fabric.net.inject(kSw, kHostPort,
                          slk::encode_conn({1, 500'000ull + static_cast<std::uint64_t>(i * 7919)}),
                          SimTime::from_us(static_cast<std::uint64_t>(10 * i)));
  }
  app.fabric.run_all();

  const double misdirected = static_cast<double>(app.program->stats().to_old_pool - old_before);
  const double fresh =
      misdirected + static_cast<double>(app.program->stats().to_new_pool - new_before);
  return {fresh > 0 ? 100.0 * misdirected / fresh : 0.0, app.detected()};
}

// --- Row 3: IDS/IPS (Netwarden) ----------------------------------------------

RowRun flowstats_run(Scenario scenario, std::uint64_t seed) {
  namespace fs = apps::flowstats;
  AppFabric<fs::FlowStatsProgram> app(scenario, seed);
  if (!app.keys_ok) return {-1, false};

  if (adversary_on(scenario)) {
    // Inflate the reported IPD sum 3x so the covert flow's average falls
    // outside the detection band (Table I: evasion).
    app.sw->sw->set_os_interposer(attacks::make_report_inflater(
        fs::kIpdSumReg, every_value(1, [](std::uint64_t value) { return value * 3; })));
  }

  // Covert flow 7: 50 packets with ~1 ms inter-packet delay (in-band).
  for (int i = 0; i < 50; ++i) {
    app.fabric.net.inject(kSw, kHostPort, fs::encode_packet({7, 64}),
                          SimTime::from_us(static_cast<std::uint64_t>(1000 * i)));
  }
  app.fabric.run_all();

  fs::FlowStatsManager manager(app.fabric.controller, kSw);
  bool blocked = false;
  for (int attempt = 0; attempt < 3 && !blocked; ++attempt) {
    std::optional<Result<fs::FlowStatsManager::Verdict>> verdict;
    manager.inspect_flow(7, [&](auto v) { verdict = std::move(v); });
    app.fabric.run_all();
    if (verdict.has_value() && verdict->ok()) {
      blocked = verdict->value().blocked;
      break;  // inspection succeeded: accept its verdict
    }
    // Verification failure: retry (with P4Auth the implant already spent
    // its shot, so the retry sees honest numbers).
  }
  return {blocked ? 1.0 : 0.0, app.detected()};
}

// --- Row 4: In-network cache (NetCache) ---------------------------------------

RowRun netcache_run(Scenario scenario, std::uint64_t seed) {
  namespace nc = apps::netcache;
  AppFabric<nc::NetCacheProgram> app(scenario, seed);
  if (!app.keys_ok) return {-1, false};

  constexpr std::uint32_t kHotKey = 0xABCD;
  if (adversary_on(scenario)) {
    // Corrupt the hot-key install so the cache holds a key nobody asks for.
    app.sw->sw->set_os_interposer(attacks::make_write_value_tamper(
        nc::kCacheKeyReg, every_value(1, [](std::uint64_t) { return std::uint64_t{0xDEAD}; })));
  }

  nc::NetCacheManager manager(app.fabric.controller, kSw);
  (void)retry_sync(app.fabric, 3,
                   [&](auto done) { manager.install_hot_key(0, kHotKey, 777, done); });

  // GET workload: the hot key dominates.
  const auto hits_before = app.program->stats().hits;
  const auto misses_before = app.program->stats().misses;
  Xoshiro256 rng(seed);
  constexpr int kQueries = 500;
  for (int i = 0; i < kQueries; ++i) {
    const std::uint32_t key = rng.next_double() < 0.8 ? kHotKey : 1 + rng.next_u32() % 1000;
    app.fabric.net.inject(kSw, kHostPort, nc::encode_query({key}),
                          SimTime::from_us(static_cast<std::uint64_t>(20 * i)));
  }
  app.fabric.run_all();

  const double hits = static_cast<double>(app.program->stats().hits - hits_before);
  const double misses = static_cast<double>(app.program->stats().misses - misses_before);
  // Retrieval-latency model: cache hit 5 us, server round trip 200 us.
  return {(hits * 5.0 + misses * 200.0) / std::max(1.0, hits + misses), app.detected()};
}

// --- Row 5: Measurement (FlowRadar) --------------------------------------------

RowRun flowradar_run(Scenario scenario, std::uint64_t seed) {
  namespace fr = apps::flowradar;
  fr::FlowRadarProgram::Config config;
  config.cells = 96;
  Fabric::Options options;
  options.controller_config.max_outstanding = 512;
  AppFabric<fr::FlowRadarProgram> app(scenario, seed, config, options);
  if (!app.keys_ok) return {-1, false};

  if (adversary_on(scenario)) {
    // Skew the exported packet counters (poisoning loss analysis).
    app.sw->sw->set_os_interposer(attacks::make_report_inflater(
        fr::kPktCntReg, every_value(32, [](std::uint64_t value) { return value + 7; })));
  }

  // Ground truth: 20 flows, flow f sends f+1 packets.
  std::map<std::uint32_t, std::uint64_t> truth;
  SimTime t = SimTime::from_us(1);
  for (std::uint32_t f = 1; f <= 20; ++f) {
    for (std::uint32_t p = 0; p <= f; ++p) {
      app.fabric.net.inject(kSw, kHostPort, fr::encode_packet({f * 101}), t);
      t += SimTime::from_us(3);
      ++truth[f * 101];
    }
  }
  app.fabric.run_all();

  fr::FlowRadarManager manager(app.fabric.controller, kSw, 96);
  fr::DecodeResult decoded;
  bool have_decode = false;
  for (int attempt = 0; attempt < 3 && !have_decode; ++attempt) {
    std::optional<Result<fr::DecodeResult>> result;
    manager.export_and_decode([&](auto r) { result = std::move(r); });
    app.fabric.run_all();
    if (result.has_value() && result->ok()) {
      decoded = result->value();
      have_decode = true;
    }
  }
  if (!have_decode) return {0.0, app.detected()};

  int correct = 0;
  for (const auto& [flow, count] : truth) {
    const auto it = decoded.flows.find(flow);
    if (it != decoded.flows.end() && it->second == count) ++correct;
  }
  return {100.0 * static_cast<double>(correct) / static_cast<double>(truth.size()),
          app.detected()};
}

}  // namespace

std::vector<Table1Row> run_table1_experiment(std::uint64_t seed) {
  return {
      three_runs("FRR (RouteScout)", "traffic share on slower path-2 (%)", routescout_run, seed),
      three_runs("FRR (Blink)", "traffic on operator-chosen next hop (%)", blink_run, seed),
      three_runs("LB (SilkRoad)", "new connections sent to draining pool (%)", silkroad_run,
                 seed),
      three_runs("IDS/IPS (Netwarden)", "covert flow blocked (1 = yes)", flowstats_run, seed),
      three_runs("Cache (NetCache)", "mean GET retrieval time (us)", netcache_run, seed),
      three_runs("Measurement (FlowRadar)", "flows decoded with exact packet counts (%)",
                 flowradar_run, seed),
  };
}

}  // namespace p4auth::experiments
