// Burst-equivalence acceptance: the burst pre-pass (multi-frame
// staging, prefetch, multi-lane digests) is a pure scheduling
// optimization — a fixed-seed run with burst planning ON must produce
// byte-identical telemetry (metrics JSON and trace JSONL) to the
// packet-at-a-time reference path with it OFF. This is the determinism
// contract from dataplane/burst.hpp, end to end through the hula
// fabric under the on-link adversary (verify failures, tamper rewrites,
// flowlet churn — the full hot path, not a quiet topology).
#include <gtest/gtest.h>

#include <string>

#include "experiments/hula_experiment.hpp"
#include "telemetry/telemetry.hpp"

namespace p4auth::experiments {
namespace {

struct Captured {
  std::string metrics;
  std::string trace;
  std::uint64_t verify_ok = 0;
  double burst_highwater = 0;
};

Captured run_once(std::uint64_t seed, bool burst_planning) {
  telemetry::Telemetry telemetry;
  HulaOptions options;
  options.seed = seed;
  options.duration = SimTime::from_ms(200);
  options.telemetry = &telemetry;
  options.burst_planning = burst_planning;
  (void)run_hula_experiment(Scenario::P4AuthAttack, options);
  Captured out;
  out.metrics = telemetry.metrics_json();
  out.trace = telemetry.trace_jsonl();
  out.verify_ok = telemetry.metrics.counter_total("auth.verify_ok");
  out.burst_highwater = telemetry.metrics.gauge("pool.burst_highwater").value();
  return out;
}

TEST(BurstEquivalence, BurstAndPacketAtATimePathsAreByteIdentical) {
  for (const std::uint64_t seed : {7u, 11u}) {
    const Captured burst = run_once(seed, /*burst_planning=*/true);
    const Captured scalar = run_once(seed, /*burst_planning=*/false);
    ASSERT_GT(burst.verify_ok, 0u) << "seed " << seed << ": hot path never exercised";
    // A lone frame is never planned, so the comparison proves something
    // only if the run stages real bursts of two or more.
    ASSERT_GE(burst.burst_highwater, 2.0) << "seed " << seed << ": no multi-frame burst";
    EXPECT_EQ(burst.metrics, scalar.metrics) << "seed " << seed;
    EXPECT_EQ(burst.trace, scalar.trace) << "seed " << seed;
  }
}

}  // namespace
}  // namespace p4auth::experiments
