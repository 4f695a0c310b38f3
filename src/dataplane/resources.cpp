#include "dataplane/resources.hpp"

#include <algorithm>
#include <cmath>

namespace p4auth::dataplane {
namespace {

constexpr int ceil_div(std::size_t a, std::size_t b) noexcept {
  return static_cast<int>((a + b - 1) / b);
}

}  // namespace

HashUse HashUse::halfsiphash(std::string label, std::size_t bytes, int lanes) {
  HashUse use;
  use.label = std::move(label);
  use.algo = Algo::HalfSipHash;
  use.covered_bytes = bytes;
  use.lanes = lanes;
  return use;
}

HashUse HashUse::crc32(std::string label, std::size_t bytes) {
  HashUse use;
  use.label = std::move(label);
  use.algo = Algo::Crc32;
  use.covered_bytes = bytes;
  return use;
}

HashUse HashUse::table_lookup(std::string label) {
  HashUse use;
  use.label = std::move(label);
  use.algo = Algo::TableLookup;
  return use;
}

HashUse HashUse::random_gen(std::string label) {
  HashUse use;
  use.label = std::move(label);
  use.algo = Algo::RandomGen;
  return use;
}

int HashUse::units() const noexcept {
  switch (algo) {
    case Algo::HalfSipHash: {
      // Each 4-byte message block costs `rounds_c` ARX round slots, plus
      // `rounds_d` finalization slots. Wider digests run `lanes` parallel
      // 32-bit instances, with message loading amortized across lanes
      // (factor 0.825, calibrated to the paper's §XI observation that a
      // 256-bit digest needs ~560% more hash-distribution units).
      const int blocks = ceil_div(covered_bytes, 4);
      const int single = rounds_c * blocks + rounds_d;
      if (lanes <= 1) return single;
      return static_cast<int>(std::ceil(single * lanes * 0.825));
    }
    case Algo::Crc32:
      return lanes;  // native CRC: one unit per 32-bit lane
    case Algo::TableLookup:
    case Algo::RandomGen:
      return 1;
  }
  return 0;
}

int HashUse::stages() const noexcept {
  switch (algo) {
    case Algo::HalfSipHash: {
      // A single-lane HalfSipHash schedules across 4 stages on the model
      // target; wider digests deepen the schedule ~ cbrt(lanes) (matches
      // §XI: 256-bit digest doubles the stage count).
      const double base = 4.0;
      return static_cast<int>(std::ceil(base * std::cbrt(static_cast<double>(lanes))));
    }
    case Algo::Crc32:
      return 1;
    case Algo::TableLookup:
    case Algo::RandomGen:
      return 1;
  }
  return 0;
}

ResourceUsage compute_usage(const ProgramDeclaration& program, const ResourceBudget& budget) {
  ResourceUsage usage;
  usage.sram_blocks += program.parser_overhead_sram_blocks;

  for (const auto& table : program.tables) {
    switch (table.match_kind) {
      case MatchKind::Lpm:
      case MatchKind::Ternary: {
        const int key_units = ceil_div(static_cast<std::size_t>(table.key_bits), kTcamKeyUnitBits);
        usage.tcam_blocks += key_units * ceil_div(table.capacity, kTcamEntriesPerBlock);
        // Action data lives in SRAM next to the TCAM.
        usage.sram_blocks += ceil_div(static_cast<std::size_t>(table.action_bits), kSramWordBits) *
                             ceil_div(table.capacity, kSramEntriesPerBlock);
        break;
      }
      case MatchKind::Exact: {
        const int word_units =
            ceil_div(static_cast<std::size_t>(table.key_bits + table.action_bits), kSramWordBits);
        usage.sram_blocks += word_units * ceil_div(table.capacity, kSramEntriesPerBlock) + 1;
        usage.hash_units += 1;  // lookup hash
        break;
      }
    }
    usage.stages += 1;
  }

  for (const auto& reg : program.registers) {
    usage.sram_blocks += ceil_div(reg.total_bits, kSramBlockBits);
  }

  for (const auto& use : program.hash_uses) {
    usage.hash_units += use.units();
    usage.stages = std::max(usage.stages, use.stages());
  }

  usage.phv_bits = program.header_phv_bits + program.metadata_phv_bits;
  usage.stages = std::min(usage.stages, budget.stages);

  const auto pct = [](int used, int total) {
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(used) / static_cast<double>(total);
  };
  usage.tcam_pct = pct(usage.tcam_blocks, budget.tcam_blocks);
  usage.sram_pct = pct(usage.sram_blocks, budget.sram_blocks);
  usage.hash_pct = pct(usage.hash_units, budget.hash_units);
  usage.phv_pct = pct(usage.phv_bits, budget.phv_bits);
  return usage;
}

}  // namespace p4auth::dataplane
