// Tofino-like hardware resource model (reproduces Table II).
//
// The model charges each program construct the same *kind* of resource the
// real compiler would: LPM/ternary keys consume TCAM blocks, exact tables
// and registers consume SRAM blocks (plus one hash unit per exact table
// for the lookup hash), digest/KDF computations consume hash-distribution
// units, and headers/metadata consume PHV bits. Budgets approximate one
// Tofino pipe; all Table II percentages are computed, not hard-coded.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataplane/register_file.hpp"
#include "dataplane/table.hpp"

namespace p4auth::dataplane {

// Charging-rule constants, shared between compute_usage and the static
// verifier (src/analysis) so both bill from the same model.
inline constexpr std::size_t kTcamEntriesPerBlock = 512;
inline constexpr int kTcamKeyUnitBits = 44;
inline constexpr std::size_t kSramEntriesPerBlock = 1024;
inline constexpr int kSramWordBits = 128;
inline constexpr std::size_t kSramBlockBits = 131072;  // 128 Kb

/// Total per-pipe budgets.
struct ResourceBudget {
  int stages = 12;
  int tcam_blocks = 288;   // 24 blocks x 12 stages
  int sram_blocks = 960;   // 80 blocks x 12 stages
  int hash_units = 80;     // hash-distribution unit slots
  int phv_bits = 4096;

  // Per-stage capacity, for single-stage feasibility checks: a construct
  // that needs more of a resource than one stage provides cannot be
  // placed no matter how empty the rest of the pipe is.
  int tcam_blocks_per_stage() const noexcept { return stages > 0 ? tcam_blocks / stages : 0; }
  int hash_units_per_stage() const noexcept { return stages > 0 ? hash_units / stages : 0; }
};

/// One use of a hash-capable unit by the program (digest computation,
/// digest verification, KDF PRF invocation, exact-match lookup hash...).
struct HashUse {
  enum class Algo : std::uint8_t { HalfSipHash, Crc32, TableLookup, RandomGen };

  std::string label;
  Algo algo = Algo::Crc32;
  std::size_t covered_bytes = 0;  ///< message bytes the unit digests
  int lanes = 1;                  ///< parallel 32-bit output lanes (digest_bits/32)
  int rounds_c = 2;               ///< SipHash compression rounds
  int rounds_d = 4;               ///< SipHash finalization rounds

  static HashUse halfsiphash(std::string label, std::size_t bytes, int lanes = 1);
  static HashUse crc32(std::string label, std::size_t bytes = 8);
  static HashUse table_lookup(std::string label);
  static HashUse random_gen(std::string label);

  /// Hash-distribution units this use occupies.
  int units() const noexcept;
  /// Pipeline stages this use spans.
  int stages() const noexcept;
};

struct RegisterShape {
  std::string name;
  std::size_t total_bits = 0;
  /// Holds key material (K_auth/K_local/K_port): a read taints the path
  /// until the digest extern consumes it, a write is a key install.
  bool secret = false;

  /// A real array's shape: its name, storage and secrecy.
  static RegisterShape of(const RegisterArray& reg) {
    return RegisterShape{reg.name(), reg.total_bits(), reg.secret()};
  }

  friend bool operator==(const RegisterShape&, const RegisterShape&) = default;
};

/// Everything the resource model needs about a program. Programs do not
/// build one by hand: PipelineModel::declaration() derives it from the
/// shapes on the model's nodes plus the model's hash uses and PHV bits.
struct ProgramDeclaration {
  std::string name;
  std::vector<TableShape> tables;
  std::vector<RegisterShape> registers;
  std::vector<HashUse> hash_uses;
  int header_phv_bits = 0;
  int metadata_phv_bits = 0;
  int parser_overhead_sram_blocks = 1;
};

/// Absolute block/unit/bit counts plus utilization percentages.
struct ResourceUsage {
  int tcam_blocks = 0;
  int sram_blocks = 0;
  int hash_units = 0;
  int phv_bits = 0;
  int stages = 0;

  double tcam_pct = 0, sram_pct = 0, hash_pct = 0, phv_pct = 0;
};

/// TCAM/SRAM charging rules (documented in resources.cpp):
///  * LPM/ternary: ceil(key_bits/44) key units x ceil(capacity/512) TCAM
///    blocks; action data charged to SRAM.
///  * exact: ceil((key+action bits)/128) x ceil(capacity/1024) SRAM blocks
///    + 1 block hash-way overhead, + 1 hash unit.
///  * register: ceil(total_bits / 131072) SRAM blocks (128 Kb block).
ResourceUsage compute_usage(const ProgramDeclaration& program,
                            const ResourceBudget& budget = {});

}  // namespace p4auth::dataplane
