// Fig 17 (and Fig 3) experiment: HULA on the five-switch topology
//
//            S2
//          /    \.
//   S1 -- S3 --- S5
//          \    /
//            S4
//
// Probes flow S5 -> {S2,S3,S4} -> S1; data flows S1 -> best hop -> S5.
// The adversary sits on the S4-S1 link and rewrites probeUtil to a low
// value so S1 prefers the S4 path.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace p4auth::telemetry {
struct Telemetry;
}

namespace p4auth::experiments {

enum class Scenario {
  Baseline,       ///< no adversary, no P4Auth
  Attack,         ///< adversary, no P4Auth
  P4AuthAttack,   ///< adversary + P4Auth
  P4AuthClean,    ///< P4Auth, no adversary (overhead reference)
};

const char* scenario_name(Scenario scenario);

/// P4Auth guards the run.
constexpr bool p4auth_on(Scenario scenario) noexcept {
  return scenario == Scenario::P4AuthAttack || scenario == Scenario::P4AuthClean;
}
/// The adversary is armed.
constexpr bool adversary_on(Scenario scenario) noexcept {
  return scenario == Scenario::Attack || scenario == Scenario::P4AuthAttack;
}

struct HulaResult {
  /// Share of S1's data bytes leaving via S2 / S3 / S4, in percent.
  std::array<double, 3> path_share_pct{};
  std::uint64_t total_bytes = 0;
  std::uint64_t delivered = 0;
  std::uint64_t probes_rejected = 0;
  std::uint64_t unauth_probes_dropped = 0;
  std::uint64_t alerts = 0;
  /// Congestion evidence (§II: the attack "inflates flow completion
  /// times"): mean egress queueing delay per frame on the compromised
  /// S4->S5 link vs the mean of the other two paths' links.
  double s4_path_queue_us = 0;
  double other_paths_queue_us = 0;
};

struct HulaOptions {
  std::uint64_t seed = 1;
  SimTime duration = SimTime::from_ms(1500);
  SimTime probe_period = SimTime::from_us(400);
  double data_packets_per_second = 24'000.0;
  std::uint32_t data_packet_bytes = 1200;
  double mean_flow_packets = 24.0;
  std::uint8_t forged_util = 10;  ///< the Fig 3 value: ~10% claimed
  /// Cross-traffic load on each middle->S5 link. Path utilization is
  /// dominated by these upstream links (Fig 3: the S4 path really runs at
  /// ~50% while the forged probe claims ~10%), which is what the on-link
  /// adversary hides from S1.
  double background_load_fraction = 0.30;
  /// Shared telemetry bundle (null = off); stamped with the final
  /// sim-time before the experiment returns.
  telemetry::Telemetry* telemetry = nullptr;
  /// Shards of the conservative-lookahead engine (<= 1 = one shard).
  /// Outputs are byte-identical for any N (see Fabric::Options::shards).
  int shards = 1;
  /// Worker threads for the sharded engine (0 = one per shard).
  int shard_workers = 0;
  /// Explicit (node id, shard) placement override for the sharded run
  /// (empty = the Fabric's BFS partition). Outputs are byte-identical
  /// for any placement — pinned by the shard-equivalence tests.
  std::vector<std::pair<std::uint32_t, int>> shard_assignment{};
};

HulaResult run_hula_experiment(Scenario scenario, const HulaOptions& options = {});

}  // namespace p4auth::experiments
