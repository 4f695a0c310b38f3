#include "scenario/engine.hpp"

#include <memory>
#include <optional>

#include "analysis/registry.hpp"
#include "apps/l3fwd/l3fwd.hpp"
#include "attacks/control_plane_mitm.hpp"
#include "attacks/digest_flood.hpp"
#include "attacks/table_poison.hpp"
#include "controller/key_rotation.hpp"
#include "experiments/fabric.hpp"
#include "scenario/apps.hpp"

namespace p4auth::scenario {
namespace {

using experiments::Fabric;
using experiments::FabricSwitch;

constexpr PortId kHostPort{9};

/// The scenario's OS implant: forges `forged` over each value that is not
/// already `forged`, one of `shots` each time, then goes quiet.
attacks::ValueTransform forging_implant(std::uint32_t shots, std::uint64_t forged) {
  return attacks::counted_implant(shots, [forged](std::uint32_t, std::uint64_t value) {
    return value != forged ? std::optional<std::uint64_t>(forged) : std::nullopt;
  });
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
      return std::make_unique<apps::l3fwd::L3FwdProgram>(registers);
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

}  // namespace

ScenarioEvidence run_scenario(const ScenarioSpec& spec) {
  ScenarioEvidence ev;
  ev.spec = spec;
  if (!spec_valid(spec)) {
    ev.init_error = "invalid spec";
    return ev;
  }
  const AppRow& app = app_row(spec.app);

  telemetry::Telemetry telemetry;
  Fabric::Options options;
  options.p4auth = spec.p4auth;
  options.seed = spec.seed;
  options.telemetry = &telemetry;
  // Authentic alerts drive a defensive rekey — the oracle checks forged
  // ones never do.
  options.controller_config.rekey_on_alert = spec.p4auth;
  if (spec.attack == AttackKind::LinkMitm && app.feedback_magic.has_value()) {
    // The on-link adversary needs protected DP-DP feedback to corrupt.
    options.protected_magics = {*app.feedback_magic};
  }
  Fabric fabric(options);

  dataplane::DataPlaneProgram* app_program = nullptr;
  Topo topo = build_topology(fabric, spec, [&](dataplane::RegisterFile& registers) {
    auto program = app.make(registers);
    app_program = program.get();
    return program;
  });
  app.expose(*app_program, *topo.app_sw->agent);

  if (const auto status = fabric.init_all_keys(); !status.ok()) {
    ev.init_error = status.error().message;
    return ev;
  }

  // --- Arm the write-path implant before the install it tampers with ----
  if (spec.attack == AttackKind::CpWriteTamper) {
    topo.app_sw->sw->set_os_interposer(attacks::make_write_value_tamper(
        app.poison.reg, forging_implant(spec.attack_count, app.poison.value)));
  }

  // --- App install (controller-driven where the paper's Table I does) ---
  const Status install = app.install(fabric, *app_program);
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
  for (std::uint32_t i = 0; i < spec.benign_packets; ++i) {
    fabric.net.inject(kAppSwitch, kHostPort, app.benign_frame(i),
                      SimTime::from_us(10 + 5ull * i));
  }

  switch (spec.attack) {
    case AttackKind::None:
    case AttackKind::CpWriteTamper:  // armed above
      break;
    case AttackKind::ReportInflate:
      // Armed against the post-run read probe; installs are already done,
      // so every shot is left for the misreport.
      if (const auto& cell = app.installed) {
        topo.app_sw->sw->set_os_interposer(attacks::make_report_inflater(
            cell->reg, forging_implant(spec.attack_count, cell->value * 3 + 1)));
      }
      break;
    case AttackKind::LinkMitm: {
      // Corrupt the first attack_count protected feedback frames leaving
      // S1 after the window opens. KMP legs crossing the same link are
      // left alone — the adversary hunts app feedback, not key material.
      // The link owns the hook and calls it in place, so the shot count
      // lives in the closure.
      const std::uint64_t not_before = start.ns();
      topo.first_link->set_tamper(
          kAppSwitch, [remaining = spec.attack_count, not_before, sim = &fabric.sim,
                       magic = app.feedback_magic](Bytes& frame) mutable {
            if (remaining == 0 || sim->now().ns() < not_before || frame.empty()) {
              return netsim::TamperVerdict::Pass;
            }
            bool feedback = frame[0] == magic;
            if (!feedback) {
              const auto header = core::decode_header(frame);
              feedback = header.ok() && header.value().hdr_type == core::HdrType::DpData;
            }
            if (feedback) {
              --remaining;
              frame.back() ^= 0x5A;
            }
            return netsim::TamperVerdict::Pass;
          });
      break;
    }
    case AttackKind::TablePoison: {
      attacks::TablePoisonPlan plan;
      plan.controller_id = kControllerId;
      plan.reg = app.poison.reg;
      plan.index = app.poison.index;
      plan.value = app.poison.value;
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
                                         kControllerId, app.exhaust,
                                         {kControllerId, spec.attack_count, spec.seed}, start,
                                         window);
      break;
  }

  fabric.run_all();

  // --- Post-run probes ----------------------------------------------------
  if (spec.attack == AttackKind::ReportInflate && app.installed.has_value()) {
    const RegisterCell& target = *app.installed;
    ev.readback_done = true;
    ev.expected_value = target.value;  // the honest value for this probe
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

  const RegisterCell effect = spec.attack == AttackKind::RegisterExhaust
                                  ? RegisterCell{app.exhaust, 0, 0xEA457EDull}
                                  : app.poison;
  if (spec.attack == AttackKind::CpWriteTamper || spec.attack == AttackKind::TablePoison ||
      spec.attack == AttackKind::RegisterExhaust) {
    if (auto* reg = topo.app_sw->sw->registers().by_id(effect.reg)) {
      ev.attack_effect_applied = reg->read(effect.index).value_or(0) == effect.value;
    }
  }

  // --- Evidence harvest ---------------------------------------------------
  ev.benign_delivered = app.delivered(*app_program);
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

  if (const auto* entry = analysis::find_program(app.name)) {
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
