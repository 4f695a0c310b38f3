// Scenario engine e2e: real simulated runs per representative spec, with
// the oracle as the assertion layer — plus run-twice determinism and the
// claim_benign negative path against live evidence.
#include "scenario/engine.hpp"

#include <gtest/gtest.h>

#include "scenario/oracle.hpp"

namespace p4auth::scenario {
namespace {

ScenarioSpec base_spec(AttackKind attack, bool p4auth) {
  ScenarioSpec spec;
  spec.seed = 0x5EED;
  spec.p4auth = p4auth;
  spec.attack = attack;
  spec.attack_count = attack == AttackKind::None ? 0 : 4;
  spec.benign_packets = 30;
  switch (attack) {
    case AttackKind::LinkMitm:
      spec.app = AppKind::Blink;
      spec.topology = TopologyShape::Line;
      spec.extra_switches = 1;
      break;
    case AttackKind::CpWriteTamper:
    case AttackKind::ReportInflate:
      spec.app = AppKind::NetCache;
      break;
    default:
      break;
  }
  EXPECT_TRUE(spec_valid(spec)) << spec_json(spec);
  return spec;
}

std::string first_violation(const Verdict& verdict) {
  if (verdict.violations.empty()) return "";
  return verdict.violations[0].rule + ": " + verdict.violations[0].message;
}

TEST(ScenarioEngine, BenignRunDeliversAndPassesCleanly) {
  const ScenarioEvidence ev = run_scenario(base_spec(AttackKind::None, true));
  ASSERT_TRUE(ev.init_ok) << ev.init_error;
  EXPECT_GT(ev.benign_expected, 0u);
  EXPECT_EQ(ev.benign_delivered, ev.benign_expected);
  EXPECT_EQ(ev.digest_failures, 0u);
  EXPECT_EQ(ev.alerts_sent, 0u);
  EXPECT_GT(ev.audit_total, 0u);  // key installs are audited even when benign
  const Verdict verdict = judge(ev);
  EXPECT_TRUE(verdict.pass()) << first_violation(verdict);
}

TEST(ScenarioEngine, TablePoisonDetectedUnderP4Auth) {
  const ScenarioEvidence ev = run_scenario(base_spec(AttackKind::TablePoison, true));
  ASSERT_TRUE(ev.init_ok) << ev.init_error;
  EXPECT_GT(ev.digest_failures, 0u);
  EXPECT_GT(ev.alerts_sent + ev.alerts_suppressed, 0u);
  EXPECT_GT(ev.ctrl_alerts_authentic, 0u);
  EXPECT_FALSE(ev.attack_effect_applied);
  EXPECT_EQ(ev.writes_after_install, 0u);
  const Verdict verdict = judge(ev);
  EXPECT_TRUE(verdict.pass()) << first_violation(verdict);
}

TEST(ScenarioEngine, TablePoisonLandsOnBaseline) {
  const ScenarioEvidence ev = run_scenario(base_spec(AttackKind::TablePoison, false));
  ASSERT_TRUE(ev.init_ok) << ev.init_error;
  EXPECT_TRUE(ev.attack_effect_applied);
  EXPECT_EQ(ev.digest_failures, 0u);  // baseline has nothing to verify
  const Verdict verdict = judge(ev);
  EXPECT_TRUE(verdict.pass()) << first_violation(verdict);
}

TEST(ScenarioEngine, AlertFloodNeverAuthenticates) {
  const ScenarioEvidence ev = run_scenario(base_spec(AttackKind::AlertFlood, true));
  ASSERT_TRUE(ev.init_ok) << ev.init_error;
  EXPECT_GT(ev.ctrl_inauthentic_alerts, 0u);
  EXPECT_EQ(ev.ctrl_alerts_authentic, 0u);
  EXPECT_EQ(ev.alert_rekeys, 0u);
  const Verdict verdict = judge(ev);
  EXPECT_TRUE(verdict.pass()) << first_violation(verdict);
}

TEST(ScenarioEngine, ReportInflateRejectedWithAuthAcceptedWithout) {
  const ScenarioEvidence with = run_scenario(base_spec(AttackKind::ReportInflate, true));
  ASSERT_TRUE(with.init_ok) << with.init_error;
  ASSERT_TRUE(with.readback_done);
  EXPECT_TRUE(with.readback_ok);
  EXPECT_EQ(with.readback_value, with.expected_value);
  EXPECT_GT(with.ctrl_response_digest_failures, 0u);
  const Verdict auth_verdict = judge(with);
  EXPECT_TRUE(auth_verdict.pass()) << first_violation(auth_verdict);

  const ScenarioEvidence without = run_scenario(base_spec(AttackKind::ReportInflate, false));
  ASSERT_TRUE(without.init_ok) << without.init_error;
  ASSERT_TRUE(without.readback_done);
  EXPECT_FALSE(without.readback_ok && without.readback_value == without.expected_value);
  const Verdict base_verdict = judge(without);
  EXPECT_TRUE(base_verdict.pass()) << first_violation(base_verdict);
}

TEST(ScenarioEngine, RotationCompletesWhileUnderAttack) {
  ScenarioSpec spec = base_spec(AttackKind::KmpFlood, true);
  spec.rotation = RotationPhase::During;
  const ScenarioEvidence ev = run_scenario(spec);
  ASSERT_TRUE(ev.init_ok) << ev.init_error;
  EXPECT_GE(ev.rotation_rounds, 1u);
  EXPECT_TRUE(ev.all_keys_present);
  const Verdict verdict = judge(ev);
  EXPECT_TRUE(verdict.pass()) << first_violation(verdict);
}

TEST(ScenarioEngine, SameSpecYieldsByteIdenticalVerdicts) {
  for (AttackKind attack : {AttackKind::None, AttackKind::TablePoison, AttackKind::LinkMitm}) {
    const ScenarioSpec spec = base_spec(attack, true);
    const ScenarioEvidence a = run_scenario(spec);
    const ScenarioEvidence b = run_scenario(spec);
    EXPECT_EQ(verdict_json(a, judge(a)), verdict_json(b, judge(b)))
        << attack_name(attack);
  }
}

TEST(ScenarioEngine, ClaimBenignTurnsRealDetectionIntoViolations) {
  ScenarioSpec spec = base_spec(AttackKind::TablePoison, true);
  spec.claim_benign = true;
  const ScenarioEvidence ev = run_scenario(spec);
  ASSERT_TRUE(ev.init_ok) << ev.init_error;
  const Verdict verdict = judge(ev);
  ASSERT_FALSE(verdict.pass());
  bool no_false_alarm = false;
  for (const Violation& violation : verdict.violations) {
    no_false_alarm = no_false_alarm || violation.rule == "no-false-alarm";
  }
  EXPECT_TRUE(no_false_alarm);
}

ScenarioSpec poison_before_rotation(std::uint64_t seed, std::uint32_t index, AppKind app,
                                    TopologyShape topology, std::uint32_t extra_switches,
                                    std::uint64_t inject_at_us, std::uint64_t window_us,
                                    std::uint32_t benign) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.index = index;
  spec.app = app;
  spec.topology = topology;
  spec.extra_switches = extra_switches;
  spec.attack = AttackKind::TablePoison;
  spec.attack_count = 1;
  spec.rotation = RotationPhase::Before;
  spec.inject_at_us = inject_at_us;
  spec.inject_window_us = window_us;
  spec.benign_packets = benign;
  EXPECT_TRUE(spec_valid(spec)) << spec_json(spec);
  return spec;
}

TEST(ScenarioEngine, AlertAfterRotationReachesControllerAuthenticated) {
  // A single forged write just after a rotation round: the switch alerts
  // under its new key version, in a small PacketIn sent after the larger
  // key-update ack that installs that version at the controller. These
  // fuzzer-found specs (campaign seed-index in the comments) once had
  // the alert overtake the ack on the jittered channel and count as
  // inauthentic (detect-implies-alert).
  const ScenarioSpec specs[] = {
      // 15212506146343009075-697
      poison_before_rotation(17044874588671594675ull, 697, AppKind::L3Fwd,
                             TopologyShape::Single, 0, 231, 497, 35),
      // 1-8624
      poison_before_rotation(17067292139015356925ull, 8624, AppKind::NetCache,
                             TopologyShape::Line, 1, 232, 241, 34),
      // 2-7421
      poison_before_rotation(4071822895331994193ull, 7421, AppKind::L3Fwd, TopologyShape::Line,
                             2, 231, 705, 55),
      // 9-4406
      poison_before_rotation(16131721181752891767ull, 4406, AppKind::L3Fwd, TopologyShape::Line,
                             3, 232, 957, 75),
      // 16-4673
      poison_before_rotation(16981692909815551561ull, 4673, AppKind::Blink, TopologyShape::Line,
                             3, 232, 509, 35),
  };
  for (const ScenarioSpec& spec : specs) {
    SCOPED_TRACE(spec_json(spec));
    const ScenarioEvidence ev = run_scenario(spec);
    ASSERT_TRUE(ev.init_ok) << ev.init_error;
    EXPECT_GT(ev.ctrl_alerts_authentic, 0u);
    EXPECT_EQ(ev.ctrl_inauthentic_alerts, 0u);
    const Verdict verdict = judge(ev);
    EXPECT_TRUE(verdict.pass()) << first_violation(verdict);
  }
}

}  // namespace
}  // namespace p4auth::scenario
