// Declarative adversarial scenarios: one ScenarioSpec fully determines a
// simulated run — app, topology, attack primitive and parameters, key
// rotation phase, injection window, benign workload — and the campaign
// fuzzer derives whole matrices of them from a single seed (splitmix64,
// the same derivation idiom as telemetry trace ids), so every scenario is
// reproducible from (campaign seed, index) alone.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.hpp"

namespace p4auth::telemetry {
class JsonWriter;
}

namespace p4auth::scenario {

enum class AppKind : std::uint8_t { L3Fwd = 0, Blink = 1, NetCache = 2 };

enum class TopologyShape : std::uint8_t { Single = 0, Line = 1, Star = 2 };

enum class AttackKind : std::uint8_t {
  None = 0,
  LinkMitm = 1,         ///< on-link feedback corruption (Fig. 3 seam)
  CpWriteTamper = 2,    ///< OS implant rewrites controller writes (§II-A)
  ReportInflate = 3,    ///< OS implant inflates read responses (Attack1)
  TablePoison = 4,      ///< forged writes into the PacketOut path
  KmpFlood = 5,         ///< forged KMP frames toward the data plane
  AlertFlood = 6,       ///< OS-fabricated alerts toward the controller
  RegisterExhaust = 7,  ///< forged writes sweeping a register's indices
};

/// When the rotation round fires relative to the injection window.
enum class RotationPhase : std::uint8_t { None = 0, Before = 1, During = 2, After = 3 };

struct ScenarioSpec {
  std::uint64_t seed = 1;       ///< per-scenario rng seed (digests, workload)
  std::uint32_t index = 0;      ///< position in the campaign matrix
  AppKind app = AppKind::L3Fwd;
  TopologyShape topology = TopologyShape::Single;
  std::uint32_t extra_switches = 0;  ///< beyond the app switch S1
  bool p4auth = true;
  AttackKind attack = AttackKind::None;
  std::uint32_t attack_count = 0;  ///< forged frames / tamper shots
  RotationPhase rotation = RotationPhase::None;
  std::uint64_t inject_at_us = 100;     ///< attack window start
  std::uint64_t inject_window_us = 500;  ///< attack window length
  std::uint32_t benign_packets = 50;
  /// Oracle self-test lever: evaluate the run as though attack == None,
  /// so real detection evidence registers as rule violations. Used by the
  /// negative tests and the corpus/replay smoke; never generated.
  bool claim_benign = false;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

// Stable names (spec JSON schema, docs/FUZZING.md).
std::string_view app_name(AppKind app) noexcept;
std::string_view topology_name(TopologyShape shape) noexcept;
std::string_view attack_name(AttackKind attack) noexcept;
std::string_view rotation_name(RotationPhase phase) noexcept;

Result<AppKind> app_from_name(std::string_view name);
Result<TopologyShape> topology_from_name(std::string_view name);
Result<AttackKind> attack_from_name(std::string_view name);
Result<RotationPhase> rotation_from_name(std::string_view name);

/// splitmix64 mixing step — the scenario generator's only entropy source.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Derives the scenario at matrix position `index` of the campaign with
/// seed `campaign_seed`. Deterministic, and valid by construction: the app
/// is drawn from the rows of the app table that host the attack
/// (scenario/apps.hpp), so every generated spec runs.
ScenarioSpec generate_spec(std::uint64_t campaign_seed, std::uint32_t index);

/// True when the combination is runnable (the generator only emits valid
/// specs; hand-written --repro specs are checked with this).
bool spec_valid(const ScenarioSpec& spec) noexcept;

/// Deterministic single-line JSON encoding of a spec.
std::string spec_json(const ScenarioSpec& spec);

/// Writes the spec as a JSON object into an in-progress document (used by
/// the oracle verdict, which nests the spec).
void write_spec(telemetry::JsonWriter& w, const ScenarioSpec& spec);

}  // namespace p4auth::scenario
