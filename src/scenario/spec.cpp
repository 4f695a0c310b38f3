#include "scenario/spec.hpp"

#include "scenario/apps.hpp"
#include "telemetry/json.hpp"

namespace p4auth::scenario {

std::string_view app_name(AppKind app) noexcept { return app_row(app).name; }

std::string_view topology_name(TopologyShape shape) noexcept {
  switch (shape) {
    case TopologyShape::Single: return "single";
    case TopologyShape::Line: return "line";
    case TopologyShape::Star: return "star";
  }
  return "single";
}

std::string_view attack_name(AttackKind attack) noexcept {
  switch (attack) {
    case AttackKind::None: return "none";
    case AttackKind::LinkMitm: return "link_mitm";
    case AttackKind::CpWriteTamper: return "cp_write_tamper";
    case AttackKind::ReportInflate: return "report_inflate";
    case AttackKind::TablePoison: return "table_poison";
    case AttackKind::KmpFlood: return "kmp_flood";
    case AttackKind::AlertFlood: return "alert_flood";
    case AttackKind::RegisterExhaust: return "register_exhaust";
  }
  return "none";
}

std::string_view rotation_name(RotationPhase phase) noexcept {
  switch (phase) {
    case RotationPhase::None: return "none";
    case RotationPhase::Before: return "before";
    case RotationPhase::During: return "during";
    case RotationPhase::After: return "after";
  }
  return "none";
}

namespace {

template <typename E>
Result<E> from_name(std::string_view name, std::string_view what, int count,
                    std::string_view (*to_name)(E)) {
  for (int i = 0; i < count; ++i) {
    const auto candidate = static_cast<E>(i);
    if (to_name(candidate) == name) return candidate;
  }
  return make_error(std::string("unknown ") + std::string(what) + ": " + std::string(name));
}

}  // namespace

Result<AppKind> app_from_name(std::string_view name) {
  return from_name<AppKind>(name, "app", static_cast<int>(kAppCount), app_name);
}
Result<TopologyShape> topology_from_name(std::string_view name) {
  return from_name<TopologyShape>(name, "topology", 3, topology_name);
}
Result<AttackKind> attack_from_name(std::string_view name) {
  return from_name<AttackKind>(name, "attack", 8, attack_name);
}
Result<RotationPhase> rotation_from_name(std::string_view name) {
  return from_name<RotationPhase>(name, "rotation", 4, rotation_name);
}

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

ScenarioSpec generate_spec(std::uint64_t campaign_seed, std::uint32_t index) {
  // Seed the stream from (campaign, index) so neighbouring indices are
  // uncorrelated — same derivation shape as telemetry::derive_trace_id.
  std::uint64_t state = campaign_seed ^ (0xA5A5A5A5DEADBEEFull + index * 0xD1B54A32D192ED03ull);
  ScenarioSpec spec;
  spec.index = index;
  spec.seed = splitmix64(state) | 1;  // never 0: several RNG seams dislike it

  // Attack first: it constrains everything else. None gets a real share
  // so benign-behaviour rules see clean runs in every campaign.
  const std::uint64_t attack_roll = splitmix64(state) % 10;
  spec.attack = attack_roll < 3 ? AttackKind::None
                                : static_cast<AttackKind>(1 + (attack_roll - 3));

  // The app comes from the rows that host the attack (apps.hpp). The
  // on-link adversary corrupts feedback crossing S1's link to S2, so
  // LinkMitm always runs on a line.
  const AppChoice choice = apps_for(spec.attack);
  spec.app = choice.apps[splitmix64(state) % choice.size];
  const std::uint64_t topo_roll = splitmix64(state);
  spec.topology = spec.attack == AttackKind::LinkMitm ? TopologyShape::Line
                                                      : static_cast<TopologyShape>(topo_roll % 3);
  spec.extra_switches =
      spec.topology == TopologyShape::Single ? 0 : 1 + static_cast<std::uint32_t>(splitmix64(state) % 3);

  spec.p4auth = splitmix64(state) % 4 != 0;  // baseline runs stay in the mix

  switch (spec.attack) {
    case AttackKind::None:
      spec.attack_count = 0;
      break;
    case AttackKind::LinkMitm:
    case AttackKind::CpWriteTamper:
    case AttackKind::ReportInflate:
      spec.attack_count = 1 + static_cast<std::uint32_t>(splitmix64(state) % 3);
      break;
    case AttackKind::TablePoison:
      spec.attack_count = 1 + static_cast<std::uint32_t>(splitmix64(state) % 8);
      break;
    default:  // floods: stay under the agent's alert rate limit (64)
      spec.attack_count = 8 + static_cast<std::uint32_t>(splitmix64(state) % 41);
      break;
  }

  spec.rotation = static_cast<RotationPhase>(splitmix64(state) % 4);
  spec.inject_at_us = 50 + splitmix64(state) % 200;
  spec.inject_window_us = 200 + splitmix64(state) % 800;
  spec.benign_packets = 20 + static_cast<std::uint32_t>(splitmix64(state) % 60);
  return spec;
}

bool spec_valid(const ScenarioSpec& spec) noexcept {
  if (spec.topology == TopologyShape::Single && spec.extra_switches != 0) return false;
  if (spec.topology != TopologyShape::Single && spec.extra_switches == 0) return false;
  if (static_cast<std::size_t>(spec.app) >= kAppCount) return false;
  if (!hosts(app_row(spec.app), spec.attack)) return false;
  if (spec.attack == AttackKind::LinkMitm && spec.topology != TopologyShape::Line) return false;
  return (spec.attack == AttackKind::None) == (spec.attack_count == 0);
}

void write_spec(telemetry::JsonWriter& w, const ScenarioSpec& spec) {
  w.begin_object();
  w.kv("seed", spec.seed);
  w.kv("index", static_cast<std::uint64_t>(spec.index));
  w.kv("app", app_name(spec.app));
  w.kv("topology", topology_name(spec.topology));
  w.kv("extra_switches", static_cast<std::uint64_t>(spec.extra_switches));
  w.kv("p4auth", spec.p4auth);
  w.kv("attack", attack_name(spec.attack));
  w.kv("attack_count", static_cast<std::uint64_t>(spec.attack_count));
  w.kv("rotation", rotation_name(spec.rotation));
  w.kv("inject_at_us", spec.inject_at_us);
  w.kv("inject_window_us", spec.inject_window_us);
  w.kv("benign_packets", static_cast<std::uint64_t>(spec.benign_packets));
  if (spec.claim_benign) w.kv("claim_benign", true);
  w.end_object();
}

std::string spec_json(const ScenarioSpec& spec) {
  telemetry::JsonWriter w;
  write_spec(w, spec);
  return w.take();
}

}  // namespace p4auth::scenario
