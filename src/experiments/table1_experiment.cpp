#include "experiments/table1_experiment.hpp"

#include <memory>

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

enum class Mode { NoAttack, Attack, AttackWithP4Auth };

bool attack_on(Mode mode) { return mode != Mode::NoAttack; }
bool p4auth_on(Mode mode) { return mode == Mode::AttackWithP4Auth; }

/// Intermittent-implant transform: forge the first `times` matching
/// messages, then go quiet.
attacks::ValueTransform forge_n_times(int times, std::uint64_t forged_value) {
  auto remaining = std::make_shared<int>(times);
  return [remaining, forged_value](std::uint32_t, std::uint64_t value) {
    if (*remaining > 0) {
      --*remaining;
      return forged_value;
    }
    return value;
  };
}

/// Detection signal: any data-plane alert or controller-side digest
/// failure observed.
bool detected(const Fabric& fabric) {
  return !fabric.controller.alerts().empty() ||
         fabric.controller.stats().response_digest_failures > 0;
}

// --- Row 1: FRR (RouteScout) -------------------------------------------------

Table1Row row_frr(std::uint64_t seed) {
  Table1Row row;
  row.system = "FRR (RouteScout)";
  row.metric = "traffic share on slower path-2 (%)";

  RouteScoutOptions options;
  options.seed = seed;
  options.clean_epochs = 2;
  options.attacked_epochs = 3;
  options.data_packets_per_second = 2000;

  const auto baseline = run_routescout_experiment(Scenario::Baseline, options);
  const auto attacked = run_routescout_experiment(Scenario::Attack, options);
  const auto protected_run = run_routescout_experiment(Scenario::P4AuthAttack, options);
  row.baseline = baseline.path_share_pct[1];
  row.attacked = attacked.path_share_pct[1];
  row.with_p4auth = protected_run.path_share_pct[1];
  row.detected_without = attacked.alerts > 0;
  row.detected_with = protected_run.alerts > 0;
  return row;
}

// --- Row 1b: FRR (Blink) -------------------------------------------------------

double blink_run(Mode mode, std::uint64_t seed, bool* saw_detection) {
  namespace bk = apps::blink;
  Fabric::Options options;
  options.p4auth = p4auth_on(mode);
  options.seed = seed;
  Fabric fabric(options);

  bk::BlinkProgram* program = nullptr;
  auto& sw = fabric.add_switch(kSw, [&](dataplane::RegisterFile& registers) {
    auto p = std::make_unique<bk::BlinkProgram>(bk::BlinkProgram::Config{}, registers);
    program = p.get();
    return p;
  });
  (void)program->expose_to(*sw.agent);
  if (!fabric.init_all_keys().ok()) return -1;

  if (attack_on(mode)) {
    // Rewrite the primary next hop in the controller's per-prefix list
    // update: traffic for the prefix is hijacked to the attacker's port.
    auto remaining = std::make_shared<int>(1);
    sw.sw->set_os_interposer(attacks::make_write_value_tamper(
        bk::kNextHopsReg, [remaining](std::uint32_t, std::uint64_t value) {
          if (*remaining > 0 && value != 0) {
            --*remaining;
            return std::uint64_t{8};  // attacker's port 7, stored as +1
          }
          return value;
        }));
  }

  bk::BlinkManager manager(fabric.controller, kSw);
  (void)retry_sync(fabric, 3, [&](auto done) {
    manager.install_next_hops(1, {PortId{1}, PortId{2}, PortId{3}}, done);
  });

  for (int i = 0; i < 200; ++i) {
    fabric.net.inject(kSw, kHostPort,
                      bk::encode_packet({1, static_cast<std::uint64_t>(i), false}),
                      SimTime::from_us(static_cast<std::uint64_t>(5 * i)));
  }
  fabric.run_all();

  if (saw_detection != nullptr) *saw_detection = detected(fabric);
  const auto it = program->stats().egress_packets.find(PortId{1});
  const double on_primary =
      it != program->stats().egress_packets.end() ? static_cast<double>(it->second) : 0.0;
  const double total = static_cast<double>(program->stats().forwarded);
  return total > 0 ? 100.0 * on_primary / total : 0.0;
}

Table1Row row_frr_blink(std::uint64_t seed) {
  Table1Row row;
  row.system = "FRR (Blink)";
  row.metric = "traffic on operator-chosen next hop (%)";
  row.baseline = blink_run(Mode::NoAttack, seed, nullptr);
  row.attacked = blink_run(Mode::Attack, seed, &row.detected_without);
  row.with_p4auth = blink_run(Mode::AttackWithP4Auth, seed, &row.detected_with);
  return row;
}

// --- Row 2: LB (SilkRoad) -----------------------------------------------------

double silkroad_run(Mode mode, std::uint64_t seed, bool* saw_detection) {
  namespace slk = apps::silkroad;
  Fabric::Options options;
  options.p4auth = p4auth_on(mode);
  options.seed = seed;
  Fabric fabric(options);

  slk::SilkRoadProgram* program = nullptr;
  auto& sw = fabric.add_switch(kSw, [&](dataplane::RegisterFile& registers) {
    auto p = std::make_unique<slk::SilkRoadProgram>(slk::SilkRoadProgram::Config{}, registers);
    program = p.get();
    return p;
  });
  (void)program->expose_to(*sw.agent);
  if (!fabric.init_all_keys().ok()) return -1;

  if (attack_on(mode)) {
    // The implant rewrites the transit-table *clear* (0) into a set (1),
    // stranding new connections on the draining old pool.
    auto remaining = std::make_shared<int>(1);
    sw.sw->set_os_interposer(attacks::make_write_value_tamper(
        slk::kTransitReg, [remaining](std::uint32_t, std::uint64_t value) {
          if (*remaining > 0 && value == 0) {
            --*remaining;
            return std::uint64_t{1};
          }
          return value;
        }));
  }

  slk::SilkRoadManager manager(fabric.controller, kSw);
  (void)retry_sync(fabric, 3, [&](auto done) { manager.begin_migration(1, done); });

  // Pending connections arrive during migration (correctly pinned to the
  // old pool), then the migration finishes.
  for (int i = 0; i < 50; ++i) {
    fabric.net.inject(kSw, kHostPort,
                      slk::encode_conn({1, 1000ull + static_cast<std::uint64_t>(i)}),
                      SimTime::from_us(static_cast<std::uint64_t>(10 * i)));
  }
  fabric.run_all();

  (void)retry_sync(fabric, 3, [&](auto done) { manager.finish_migration(1, done); });

  // New connections after the migration completed must use the new pool.
  const auto old_before = program->stats().to_old_pool;
  const auto new_before = program->stats().to_new_pool;
  for (int i = 0; i < 200; ++i) {
    fabric.net.inject(kSw, kHostPort,
                      slk::encode_conn({1, 500'000ull + static_cast<std::uint64_t>(i * 7919)}),
                      SimTime::from_us(static_cast<std::uint64_t>(10 * i)));
  }
  fabric.run_all();

  if (saw_detection != nullptr) *saw_detection = detected(fabric);
  const double misdirected = static_cast<double>(program->stats().to_old_pool - old_before);
  const double fresh = misdirected + static_cast<double>(program->stats().to_new_pool - new_before);
  return fresh > 0 ? 100.0 * misdirected / fresh : 0.0;
}

Table1Row row_lb(std::uint64_t seed) {
  Table1Row row;
  row.system = "LB (SilkRoad)";
  row.metric = "new connections sent to draining pool (%)";
  row.baseline = silkroad_run(Mode::NoAttack, seed, nullptr);
  row.attacked = silkroad_run(Mode::Attack, seed, &row.detected_without);
  row.with_p4auth = silkroad_run(Mode::AttackWithP4Auth, seed, &row.detected_with);
  return row;
}

// --- Row 3: IDS/IPS (Netwarden) ----------------------------------------------

double flowstats_run(Mode mode, std::uint64_t seed, bool* saw_detection) {
  namespace fs = apps::flowstats;
  Fabric::Options options;
  options.p4auth = p4auth_on(mode);
  options.seed = seed;
  Fabric fabric(options);

  fs::FlowStatsProgram* program = nullptr;
  auto& sw = fabric.add_switch(kSw, [&](dataplane::RegisterFile& registers) {
    auto p = std::make_unique<fs::FlowStatsProgram>(fs::FlowStatsProgram::Config{}, registers);
    program = p.get();
    return p;
  });
  (void)program->expose_to(*sw.agent);
  if (!fabric.init_all_keys().ok()) return -1;

  if (attack_on(mode)) {
    // Inflate the reported IPD sum 3x so the covert flow's average falls
    // outside the detection band (Table I: evasion).
    auto remaining = std::make_shared<int>(1);
    sw.sw->set_os_interposer(attacks::make_report_inflater(
        fs::kIpdSumReg, [remaining](std::uint32_t, std::uint64_t value) {
          if (*remaining > 0) {
            --*remaining;
            return value * 3;
          }
          return value;
        }));
  }

  // Covert flow 7: 50 packets with ~1 ms inter-packet delay (in-band).
  for (int i = 0; i < 50; ++i) {
    fabric.net.inject(kSw, kHostPort, fs::encode_packet({7, 64}),
                      SimTime::from_us(static_cast<std::uint64_t>(1000 * i)));
  }
  fabric.run_all();

  fs::FlowStatsManager manager(fabric.controller, kSw);
  bool blocked = false;
  for (int attempt = 0; attempt < 3 && !blocked; ++attempt) {
    std::optional<Result<fs::FlowStatsManager::Verdict>> verdict;
    manager.inspect_flow(7, [&](auto v) { verdict = std::move(v); });
    fabric.run_all();
    if (verdict.has_value() && verdict->ok()) {
      blocked = verdict->value().blocked;
      break;  // inspection succeeded: accept its verdict
    }
    // Verification failure: retry (with P4Auth the implant already spent
    // its shot, so the retry sees honest numbers).
  }
  if (saw_detection != nullptr) *saw_detection = detected(fabric);
  return blocked ? 1.0 : 0.0;
}

Table1Row row_ids(std::uint64_t seed) {
  Table1Row row;
  row.system = "IDS/IPS (Netwarden)";
  row.metric = "covert flow blocked (1 = yes)";
  row.baseline = flowstats_run(Mode::NoAttack, seed, nullptr);
  row.attacked = flowstats_run(Mode::Attack, seed, &row.detected_without);
  row.with_p4auth = flowstats_run(Mode::AttackWithP4Auth, seed, &row.detected_with);
  return row;
}

// --- Row 4: In-network cache (NetCache) ---------------------------------------

double netcache_run(Mode mode, std::uint64_t seed, bool* saw_detection) {
  namespace nc = apps::netcache;
  Fabric::Options options;
  options.p4auth = p4auth_on(mode);
  options.seed = seed;
  Fabric fabric(options);

  nc::NetCacheProgram* program = nullptr;
  auto& sw = fabric.add_switch(kSw, [&](dataplane::RegisterFile& registers) {
    auto p = std::make_unique<nc::NetCacheProgram>(nc::NetCacheProgram::Config{}, registers);
    program = p.get();
    return p;
  });
  (void)program->expose_to(*sw.agent);
  if (!fabric.init_all_keys().ok()) return -1;

  constexpr std::uint32_t kHotKey = 0xABCD;
  if (attack_on(mode)) {
    // Corrupt the hot-key install so the cache holds a key nobody asks for.
    sw.sw->set_os_interposer(attacks::make_write_value_tamper(
        nc::kCacheKeyReg, forge_n_times(1, /*forged_value=*/0xDEAD)));
  }

  nc::NetCacheManager manager(fabric.controller, kSw);
  (void)retry_sync(fabric, 3,
                   [&](auto done) { manager.install_hot_key(0, kHotKey, 777, done); });

  // GET workload: the hot key dominates.
  const auto hits_before = program->stats().hits;
  const auto misses_before = program->stats().misses;
  Xoshiro256 rng(seed);
  constexpr int kQueries = 500;
  for (int i = 0; i < kQueries; ++i) {
    const std::uint32_t key = rng.next_double() < 0.8 ? kHotKey : 1 + rng.next_u32() % 1000;
    fabric.net.inject(kSw, kHostPort, nc::encode_query({key}),
                      SimTime::from_us(static_cast<std::uint64_t>(20 * i)));
  }
  fabric.run_all();

  if (saw_detection != nullptr) *saw_detection = detected(fabric);
  const double hits = static_cast<double>(program->stats().hits - hits_before);
  const double misses = static_cast<double>(program->stats().misses - misses_before);
  // Retrieval-latency model: cache hit 5 us, server round trip 200 us.
  return (hits * 5.0 + misses * 200.0) / std::max(1.0, hits + misses);
}

Table1Row row_cache(std::uint64_t seed) {
  Table1Row row;
  row.system = "Cache (NetCache)";
  row.metric = "mean GET retrieval time (us)";
  row.baseline = netcache_run(Mode::NoAttack, seed, nullptr);
  row.attacked = netcache_run(Mode::Attack, seed, &row.detected_without);
  row.with_p4auth = netcache_run(Mode::AttackWithP4Auth, seed, &row.detected_with);
  return row;
}

// --- Row 5: Measurement (FlowRadar) --------------------------------------------

double flowradar_run(Mode mode, std::uint64_t seed, bool* saw_detection) {
  namespace fr = apps::flowradar;
  Fabric::Options options;
  options.p4auth = p4auth_on(mode);
  options.seed = seed;
  options.controller_config.max_outstanding = 512;
  Fabric fabric(options);

  fr::FlowRadarProgram* program = nullptr;
  auto& sw = fabric.add_switch(kSw, [&](dataplane::RegisterFile& registers) {
    fr::FlowRadarProgram::Config config;
    config.cells = 96;
    auto p = std::make_unique<fr::FlowRadarProgram>(config, registers);
    program = p.get();
    return p;
  });
  (void)program->expose_to(*sw.agent);
  if (!fabric.init_all_keys().ok()) return -1;

  if (attack_on(mode)) {
    // Skew the exported packet counters (poisoning loss analysis).
    auto remaining = std::make_shared<int>(32);
    sw.sw->set_os_interposer(attacks::make_report_inflater(
        fr::kPktCntReg, [remaining](std::uint32_t, std::uint64_t value) {
          if (*remaining > 0) {
            --*remaining;
            return value + 7;
          }
          return value;
        }));
  }

  // Ground truth: 20 flows, flow f sends f+1 packets.
  std::map<std::uint32_t, std::uint64_t> truth;
  SimTime t = SimTime::from_us(1);
  for (std::uint32_t f = 1; f <= 20; ++f) {
    for (std::uint32_t p = 0; p <= f; ++p) {
      fabric.net.inject(kSw, kHostPort, fr::encode_packet({f * 101}), t);
      t += SimTime::from_us(3);
      ++truth[f * 101];
    }
  }
  fabric.run_all();

  fr::FlowRadarManager manager(fabric.controller, kSw, 96);
  fr::DecodeResult decoded;
  bool have_decode = false;
  for (int attempt = 0; attempt < 3 && !have_decode; ++attempt) {
    std::optional<Result<fr::DecodeResult>> result;
    manager.export_and_decode([&](auto r) { result = std::move(r); });
    fabric.run_all();
    if (result.has_value() && result->ok()) {
      decoded = result->value();
      have_decode = true;
    }
  }
  if (saw_detection != nullptr) *saw_detection = detected(fabric);
  if (!have_decode) return 0.0;

  int correct = 0;
  for (const auto& [flow, count] : truth) {
    const auto it = decoded.flows.find(flow);
    if (it != decoded.flows.end() && it->second == count) ++correct;
  }
  return 100.0 * static_cast<double>(correct) / static_cast<double>(truth.size());
}

Table1Row row_measurement(std::uint64_t seed) {
  Table1Row row;
  row.system = "Measurement (FlowRadar)";
  row.metric = "flows decoded with exact packet counts (%)";
  row.baseline = flowradar_run(Mode::NoAttack, seed, nullptr);
  row.attacked = flowradar_run(Mode::Attack, seed, &row.detected_without);
  row.with_p4auth = flowradar_run(Mode::AttackWithP4Auth, seed, &row.detected_with);
  return row;
}

}  // namespace

std::vector<Table1Row> run_table1_experiment(std::uint64_t seed) {
  return {row_frr(seed),   row_frr_blink(seed), row_lb(seed),
          row_ids(seed),   row_cache(seed),     row_measurement(seed)};
}

}  // namespace p4auth::experiments
