// Scenario apps, one row each. A row holds everything the scenario layer
// knows about an app: how to build, expose and install it, its benign
// workload, where each attack aims, and the properties that decide which
// attacks it can host. The generator, the validator and the engine all
// read these rows, so an app joins the fuzzer by adding one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/types.hpp"
#include "scenario/spec.hpp"

namespace p4auth::core {
class P4AuthAgent;
}
namespace p4auth::dataplane {
class DataPlaneProgram;
class RegisterFile;
}  // namespace p4auth::dataplane
namespace p4auth::experiments {
class Fabric;
}

namespace p4auth::scenario {

/// The switch that hosts the scenario's app.
inline constexpr NodeId kAppSwitch{1};

/// One register cell and the value an attack writes or a probe expects.
struct RegisterCell {
  RegisterId reg{};
  std::uint32_t index = 0;
  std::uint64_t value = 0;
};

struct AppRow {
  std::string_view name;  ///< spec JSON name, and the lint registry's
  /// Builds the program against S1's register file.
  std::unique_ptr<dataplane::DataPlaneProgram> (*make)(dataplane::RegisterFile& registers);
  /// Exposes the program's registers to S1's P4Auth agent.
  void (*expose)(dataplane::DataPlaneProgram& program, core::P4AuthAgent& agent);
  /// The app install, controller-driven where the paper's Table I does.
  Status (*install)(experiments::Fabric& fabric, dataplane::DataPlaneProgram& program);
  /// The benign workload's frame number `i`.
  Bytes (*benign_frame)(std::uint32_t i);
  /// Benign frames the program has delivered.
  std::uint64_t (*delivered)(const dataplane::DataPlaneProgram& program);

  /// Where TablePoison and CpWriteTamper write, and the poison value: far
  /// outside anything benign traffic or installs write, so the post-run
  /// register probe is unambiguous.
  RegisterCell poison;
  /// The register RegisterExhaust sweeps. Its corruption cannot change
  /// the delivered count, so liveness stays assertable under baseline
  /// exhaust runs.
  RegisterId exhaust;
  /// The installed cell and its honest value, when the controller
  /// installs a register that benign traffic leaves alone. CpWriteTamper
  /// and ReportInflate need it; ReportInflate reads it back.
  std::optional<RegisterCell> installed;
  /// Leading byte of the app's DP-DP feedback, when it has feedback for
  /// P4Auth to protect. LinkMitm needs it.
  std::optional<std::uint8_t> feedback_magic;
};

inline constexpr std::size_t kAppCount = 3;

const AppRow& app_row(AppKind app) noexcept;

/// True when `row` has the property `attack` needs: LinkMitm a feedback
/// magic; CpWriteTamper and ReportInflate an installed register; every
/// other attack runs on any app.
bool hosts(const AppRow& row, AttackKind attack) noexcept;

/// The apps `attack` may run on: the rows that host it, in enum order.
struct AppChoice {
  AppKind apps[kAppCount]{};
  std::size_t size = 0;
};
AppChoice apps_for(AttackKind attack) noexcept;

}  // namespace p4auth::scenario
