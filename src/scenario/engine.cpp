#include "scenario/engine.hpp"

#include <memory>
#include <optional>

#include "analysis/registry.hpp"
#include "apps/blink/blink.hpp"
#include "apps/l3fwd/l3fwd.hpp"
#include "apps/netcache/netcache.hpp"
#include "attacks/control_plane_mitm.hpp"
#include "attacks/digest_flood.hpp"
#include "attacks/table_poison.hpp"
#include "controller/key_rotation.hpp"
#include "experiments/fabric.hpp"

namespace p4auth::scenario {
namespace {

namespace bk = apps::blink;
namespace nc = apps::netcache;
namespace l3 = apps::l3fwd;
using experiments::Fabric;
using experiments::FabricSwitch;

constexpr NodeId kAppSwitch{1};
constexpr PortId kHostPort{9};
constexpr std::uint32_t kRoutePrefix = 0xC0A80000;  // 192.168/16
constexpr std::uint32_t kHotKey = 0xABCD;
constexpr std::uint64_t kHotValue = 777;

/// Where each attack kind aims, per app. Poison values sit far outside
/// anything benign traffic or installs write, so the post-run register
/// probe is unambiguous.
struct AttackTarget {
  RegisterId reg{};
  std::uint32_t index = 0;
  std::uint64_t poison = 0;
};

AttackTarget poison_target(AppKind app) {
  switch (app) {
    case AppKind::L3Fwd: return {l3::kStatsReg, 0, 0xDEADBEEFull};
    // Prefix 1's slot 0 lives at index prefix * kNextHopSlots = 3; the
    // poison re-points it at attacker port 8 (stored +1).
    case AppKind::Blink: return {bk::kNextHopsReg, 3, 9};
    case AppKind::NetCache: return {nc::kCacheValReg, 0, 0xDEADull};
  }
  return {l3::kStatsReg, 0, 0xDEADBEEFull};
}

AttackTarget exhaust_target(AppKind app) {
  // Registers whose corruption cannot change the benign-delivery counter,
  // so liveness stays assertable under baseline exhaust runs.
  switch (app) {
    case AppKind::L3Fwd: return {l3::kStatsReg, 0, 0};
    case AppKind::Blink: return {bk::kRetxCntReg, 0, 0};
    case AppKind::NetCache: return {nc::kCmsReg, 0, 0};
  }
  return {l3::kStatsReg, 0, 0};
}

/// The register the ReportInflate probe reads back, and its honest value.
AttackTarget readback_target(AppKind app) {
  switch (app) {
    case AppKind::Blink: return {bk::kNextHopsReg, 3, 2};  // prefix 1 slot 0: port 1, +1
    case AppKind::NetCache: return {nc::kCacheValReg, 0, kHotValue};
    case AppKind::L3Fwd: return {l3::kStatsReg, 0, 0};  // never generated
  }
  return {bk::kNextHopsReg, 0, 2};
}

/// Spends `shots` rewrites of matching values, then goes quiet — the
/// intermittent-implant shape from the Table I experiments.
attacks::ValueTransform forge_n(std::uint32_t shots, std::uint64_t forged) {
  auto remaining = std::make_shared<std::uint32_t>(shots);
  return [remaining, forged](std::uint32_t, std::uint64_t value) {
    if (*remaining > 0 && value != forged) {
      --*remaining;
      return forged;
    }
    return value;
  };
}

struct Topo {
  FabricSwitch* app_sw = nullptr;
  netsim::Link* first_link = nullptr;  ///< S1's link toward S2 (if any)
  std::vector<FabricSwitch*> all;
};

/// S1 hosts the app; extras run a bare L3 forwarder. Line chains
/// S1-S2-...-Sn through ports 1/2; Star fans S1's ports 1..n out to the
/// leaves' port 1. Port plans keep kHostPort free everywhere.
Topo build_topology(Fabric& fabric, const ScenarioSpec& spec,
                    const Fabric::ProgramFactory& app_factory) {
  Topo topo;
  auto& s1 = fabric.add_switch(kAppSwitch, app_factory);
  topo.app_sw = &s1;
  topo.all.push_back(&s1);
  for (std::uint32_t i = 0; i < spec.extra_switches; ++i) {
    const NodeId id{static_cast<std::uint16_t>(2 + i)};
    auto& sw = fabric.add_switch(id, [](dataplane::RegisterFile& registers) {
      return std::make_unique<l3::L3FwdProgram>(registers);
    });
    topo.all.push_back(&sw);
  }
  for (std::uint32_t i = 0; i < spec.extra_switches; ++i) {
    const NodeId leaf{static_cast<std::uint16_t>(2 + i)};
    netsim::Link* link = nullptr;
    if (spec.topology == TopologyShape::Star) {
      link = fabric.connect(kAppSwitch, PortId{static_cast<std::uint16_t>(1 + i)}, leaf,
                            PortId{1});
    } else {  // Line
      const NodeId prev{static_cast<std::uint16_t>(1 + i)};
      link = fabric.connect(prev, prev == kAppSwitch ? PortId{1} : PortId{2}, leaf, PortId{1});
    }
    if (i == 0) topo.first_link = link;
  }
  return topo;
}

void inject_benign(Fabric& fabric, const ScenarioSpec& spec) {
  for (std::uint32_t i = 0; i < spec.benign_packets; ++i) {
    const SimTime at = SimTime::from_us(10 + 5ull * i);
    Bytes payload;
    switch (spec.app) {
      case AppKind::L3Fwd:
        payload = l3::encode_ipv4({kRoutePrefix + 1 + i % 16, 100});
        break;
      case AppKind::Blink:
        payload = bk::encode_packet({1, i, false});
        break;
      case AppKind::NetCache:
        payload = nc::encode_query({i % 4 == 0 ? 1 + i : kHotKey});
        break;
    }
    fabric.net.inject(kAppSwitch, kHostPort, std::move(payload), at);
  }
}

std::uint64_t delivered_count(const ScenarioSpec& spec, dataplane::DataPlaneProgram* inner) {
  switch (spec.app) {
    case AppKind::L3Fwd:
      return static_cast<l3::L3FwdProgram*>(inner)->forwarded();
    case AppKind::Blink:
      return static_cast<bk::BlinkProgram*>(inner)->stats().forwarded;
    case AppKind::NetCache: {
      const auto& stats = static_cast<nc::NetCacheProgram*>(inner)->stats();
      return stats.hits + stats.misses;
    }
  }
  return 0;
}

}  // namespace

ScenarioEvidence run_scenario(const ScenarioSpec& spec) {
  ScenarioEvidence ev;
  ev.spec = spec;

  telemetry::Telemetry telemetry;
  Fabric::Options options;
  options.p4auth = spec.p4auth;
  options.seed = spec.seed;
  options.telemetry = &telemetry;
  // Authentic alerts drive a defensive rekey — the oracle checks forged
  // ones never do.
  options.controller_config.rekey_on_alert = spec.p4auth;
  if (spec.attack == AttackKind::LinkMitm) {
    // The on-link adversary needs protected DP-DP feedback to corrupt.
    options.protected_magics = {bk::kPacketMagic};
  }
  Fabric fabric(options);

  dataplane::DataPlaneProgram* app_program = nullptr;
  const Fabric::ProgramFactory app_factory = [&](dataplane::RegisterFile& registers)
      -> std::unique_ptr<dataplane::DataPlaneProgram> {
    switch (spec.app) {
      case AppKind::L3Fwd: {
        auto p = std::make_unique<l3::L3FwdProgram>(registers);
        app_program = p.get();
        return p;
      }
      case AppKind::Blink: {
        auto p = std::make_unique<bk::BlinkProgram>(bk::BlinkProgram::Config{}, registers);
        app_program = p.get();
        return p;
      }
      case AppKind::NetCache: {
        auto p = std::make_unique<nc::NetCacheProgram>(nc::NetCacheProgram::Config{}, registers);
        app_program = p.get();
        return p;
      }
    }
    return nullptr;
  };

  Topo topo = build_topology(fabric, spec, app_factory);
  switch (spec.app) {
    case AppKind::L3Fwd:
      (void)static_cast<l3::L3FwdProgram*>(app_program)->expose_to(*topo.app_sw->agent);
      break;
    case AppKind::Blink:
      (void)static_cast<bk::BlinkProgram*>(app_program)->expose_to(*topo.app_sw->agent);
      break;
    case AppKind::NetCache:
      (void)static_cast<nc::NetCacheProgram*>(app_program)->expose_to(*topo.app_sw->agent);
      break;
  }

  if (const auto status = fabric.init_all_keys(); !status.ok()) {
    ev.init_error = status.error().message;
    return ev;
  }

  // --- Arm the write-path implant before the install it tampers with ----
  if (spec.attack == AttackKind::CpWriteTamper) {
    const AttackTarget target = poison_target(spec.app);
    topo.app_sw->sw->set_os_interposer(
        attacks::make_write_value_tamper(target.reg, forge_n(spec.attack_count, target.poison)));
  }

  // --- App install (controller-driven where the paper's Table I does) ---
  Status install{};
  switch (spec.app) {
    case AppKind::L3Fwd:
      install = static_cast<l3::L3FwdProgram*>(app_program)
                    ->add_route(kRoutePrefix, 16, PortId{1});
      break;
    case AppKind::Blink: {
      bk::BlinkManager manager(fabric.controller, kAppSwitch);
      // 5 attempts: a CpWriteTamper implant with 3 shots can spoil up to
      // three tries before it runs dry.
      install = retry_sync(fabric, 5, [&](auto done) {
        manager.install_next_hops(1, {PortId{1}, PortId{2}, PortId{3}}, done);
      });
      break;
    }
    case AppKind::NetCache: {
      nc::NetCacheManager manager(fabric.controller, kAppSwitch);
      install = retry_sync(fabric, 5, [&](auto done) {
        manager.install_hot_key(0, kHotKey, kHotValue, done);
      });
      break;
    }
  }
  // Under the baseline a tampered install "succeeds" with the forged
  // value — that is the attack landing, not an engine failure.
  if (!install.ok() && spec.attack != AttackKind::CpWriteTamper) {
    ev.init_error = "install failed: " + install.error().message;
    return ev;
  }
  fabric.run_all();
  ev.init_ok = true;

  const std::uint64_t writes_baseline = topo.app_sw->agent->stats().writes_served;

  // --- Key rotation round, phased against the injection window ----------
  controller::KeyRotationScheduler rotation(fabric.sim, fabric.controller,
                                            controller::KeyRotationScheduler::Config{});
  const SimTime t0 = fabric.sim.now();
  const SimTime start = t0 + SimTime::from_us(spec.inject_at_us);
  const SimTime window = SimTime::from_us(spec.inject_window_us);
  if (spec.p4auth && spec.rotation != RotationPhase::None) {
    for (const FabricSwitch* sw : topo.all) rotation.track_switch(sw->agent->config().self);
    SimTime when = t0;
    switch (spec.rotation) {
      case RotationPhase::Before: when = t0 + SimTime::from_us(spec.inject_at_us / 2); break;
      case RotationPhase::During: when = start + SimTime::from_ns(window.ns() / 2); break;
      case RotationPhase::After: when = start + window + SimTime::from_us(50); break;
      case RotationPhase::None: break;
    }
    fabric.sim.at(when, [&rotation]() { rotation.rotate_now(); });
  }

  // --- Benign workload + the scenario's attack ---------------------------
  ev.benign_expected = spec.benign_packets;
  inject_benign(fabric, spec);

  switch (spec.attack) {
    case AttackKind::None:
    case AttackKind::CpWriteTamper:  // armed above
      break;
    case AttackKind::ReportInflate:
      // Armed against the post-run read probe; installs are already done,
      // so every shot is left for the misreport.
      {
        const AttackTarget target = readback_target(spec.app);
        topo.app_sw->sw->set_os_interposer(attacks::make_report_inflater(
            target.reg, forge_n(spec.attack_count, target.poison * 3 + 1)));
      }
      break;
    case AttackKind::LinkMitm: {
      // Corrupt the first attack_count protected feedback frames leaving
      // S1 after the window opens. KMP legs crossing the same link are
      // left alone — the adversary hunts app feedback, not key material.
      auto remaining = std::make_shared<std::uint32_t>(spec.attack_count);
      const std::uint64_t not_before = start.ns();
      auto* sim = &fabric.sim;
      topo.first_link->set_tamper(kAppSwitch, [remaining, not_before, sim](Bytes& frame) {
        if (*remaining == 0 || sim->now().ns() < not_before || frame.empty()) {
          return netsim::TamperVerdict::Pass;
        }
        const bool raw_blink = frame[0] == bk::kPacketMagic;
        bool dp_data = false;
        if (!raw_blink) {
          const auto header = core::decode_header(frame);
          dp_data = header.ok() && header.value().hdr_type == core::HdrType::DpData;
        }
        if (raw_blink || dp_data) {
          --*remaining;
          frame.back() ^= 0x5A;
        }
        return netsim::TamperVerdict::Pass;
      });
      break;
    }
    case AttackKind::TablePoison: {
      const AttackTarget target = poison_target(spec.app);
      attacks::TablePoisonPlan plan;
      plan.controller_id = kControllerId;
      plan.reg = target.reg;
      plan.index = target.index;
      plan.value = target.poison;
      plan.count = spec.attack_count;
      plan.seed = spec.seed;
      attacks::schedule_table_poison(fabric.sim, *topo.app_sw->sw, &telemetry, plan, start,
                                     window);
      break;
    }
    case AttackKind::KmpFlood:
      attacks::schedule_kmp_flood(fabric.sim, *topo.app_sw->sw, &telemetry,
                                  {kControllerId, spec.attack_count, spec.seed}, start, window);
      break;
    case AttackKind::AlertFlood:
      attacks::schedule_alert_flood(fabric.sim, *topo.app_sw->sw, &telemetry,
                                    {kControllerId, spec.attack_count, spec.seed}, start,
                                    window);
      break;
    case AttackKind::RegisterExhaust:
      attacks::schedule_register_exhaust(fabric.sim, *topo.app_sw->sw, &telemetry,
                                         kControllerId, exhaust_target(spec.app).reg,
                                         {kControllerId, spec.attack_count, spec.seed}, start,
                                         window);
      break;
  }

  fabric.run_all();

  // --- Post-run probes ----------------------------------------------------
  if (spec.attack == AttackKind::ReportInflate) {
    const AttackTarget target = readback_target(spec.app);
    ev.readback_done = true;
    ev.expected_value = target.poison;  // the honest value for this probe
    // 5 attempts: the implant holds up to 3 shots, so under P4Auth the
    // probe must outlast them to read the honest value back.
    for (int attempt = 0; attempt < 5 && !ev.readback_ok; ++attempt) {
      std::optional<Result<std::uint64_t>> result;
      fabric.controller.read_register(kAppSwitch, target.reg, target.index,
                                      [&](auto r) { result = std::move(r); });
      fabric.run_all();
      if (result.has_value() && result->ok()) {
        ev.readback_ok = true;
        ev.readback_value = result->value();
      } else if (!spec.p4auth) {
        break;  // the baseline has no verification to retry around
      }
    }
  }

  const AttackTarget effect = spec.attack == AttackKind::RegisterExhaust
                                  ? AttackTarget{exhaust_target(spec.app).reg, 0, 0xEA457EDull}
                                  : poison_target(spec.app);
  if (spec.attack == AttackKind::CpWriteTamper || spec.attack == AttackKind::TablePoison ||
      spec.attack == AttackKind::RegisterExhaust) {
    if (auto* reg = topo.app_sw->sw->registers().by_id(effect.reg)) {
      ev.attack_effect_applied = reg->read(effect.index).value_or(0) == effect.poison;
    }
  }

  // --- Evidence harvest ---------------------------------------------------
  ev.benign_delivered = delivered_count(spec, app_program);
  for (const FabricSwitch* fs : topo.all) {
    const auto& stats = fs->agent->stats();
    ev.digest_failures += stats.digest_failures;
    ev.replay_rejections += stats.replay_rejections;
    ev.unauth_feedback_dropped += stats.unauth_feedback_dropped;
    ev.feedback_rejected += stats.feedback_rejected;
    ev.alerts_sent += stats.alerts_sent;
    ev.alerts_suppressed += stats.alerts_suppressed;
    ev.nacks_sent += stats.nacks_sent;
    ev.os_tampered += fs->sw->stats().os_tampered;
    ev.os_dropped += fs->sw->stats().os_dropped;
  }
  ev.writes_after_install = topo.app_sw->agent->stats().writes_served - writes_baseline;
  ev.link_tampered = fabric.net.merged_stats().frames_tampered;

  ev.ctrl_alerts_total = fabric.controller.alerts().size();
  for (const auto& alert : fabric.controller.alerts()) {
    if (alert.authentic) ++ev.ctrl_alerts_authentic;
  }
  ev.ctrl_inauthentic_alerts = fabric.controller.stats().inauthentic_alerts;
  ev.ctrl_response_digest_failures = fabric.controller.stats().response_digest_failures;
  ev.alert_rekeys = fabric.controller.stats().alert_rekeys;

  ev.rotation_rounds = rotation.stats().rounds;
  ev.rotation_failures = rotation.stats().failures;
  ev.all_keys_present = true;
  if (spec.p4auth) {
    for (const FabricSwitch* fs : topo.all) {
      ev.all_keys_present = ev.all_keys_present && fs->agent->has_local_key();
    }
  }

  if (const auto* entry = analysis::find_program(std::string(app_name(spec.app)))) {
    const auto report = analysis::lint_program(*entry);
    ev.lint_errors = static_cast<std::uint64_t>(
        analysis::count_findings(report.findings, analysis::Severity::Error));
  }

  ev.audit_total = telemetry.audit.total();
  ev.audit = telemetry.audit.records();
  ev.sim_end_ns = fabric.sim.now().ns();
  return ev;
}

}  // namespace p4auth::scenario
