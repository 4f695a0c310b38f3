#include "dataplane/resources.hpp"

#include <gtest/gtest.h>

#include "dataplane/pipeline_model.hpp"
#include "dataplane/register_file.hpp"

namespace p4auth::dataplane {
namespace {

TEST(HashUse, HalfSipHashUnitsScaleWithBytes) {
  const auto small = HashUse::halfsiphash("d", 8);
  const auto large = HashUse::halfsiphash("d", 64);
  EXPECT_LT(small.units(), large.units());
  // rounds_c * ceil(bytes/4) + rounds_d
  EXPECT_EQ(small.units(), 2 * 2 + 4);
  EXPECT_EQ(large.units(), 2 * 16 + 4);
}

TEST(HashUse, WideDigestCostsMoreUnitsAndStages) {
  const auto narrow = HashUse::halfsiphash("d32", 24, /*lanes=*/1);
  const auto wide = HashUse::halfsiphash("d256", 24, /*lanes=*/8);
  // §XI: a 256-bit digest needs ~560% more hash units and ~100% more stages.
  const double unit_growth =
      static_cast<double>(wide.units() - narrow.units()) / narrow.units() * 100.0;
  EXPECT_NEAR(unit_growth, 560.0, 60.0);
  EXPECT_EQ(wide.stages(), 2 * narrow.stages());
}

TEST(HashUse, Crc32IsOneUnitPerLane) {
  EXPECT_EQ(HashUse::crc32("prf").units(), 1);
  EXPECT_EQ(HashUse::table_lookup("tbl").units(), 1);
  EXPECT_EQ(HashUse::random_gen("rng").units(), 1);
}

ProgramDeclaration baseline_l3() {
  // The paper's evaluation base: destination-based L3 port forwarding with
  // two match-action tables and one register (§IX-B).
  ProgramDeclaration program;
  program.name = "baseline_l3";
  program.tables.push_back(TableShape{"ipv4_lpm", MatchKind::Lpm, 32, 64, 12288});
  program.tables.push_back(TableShape{"port_fwd", MatchKind::Exact, 32, 64, 2048});
  program.registers.push_back(RegisterShape{"stats", 32768u * 32u});
  program.header_phv_bits = 112 + 160;  // eth + ipv4
  program.metadata_phv_bits = 178;
  return program;
}

ProgramDeclaration with_p4auth() {
  // Baseline plus P4Auth's modules: digest verify + compute, KDF, DH,
  // key/seq/alert registers, and the reg_id_to_name mapping table (§VII).
  ProgramDeclaration program = baseline_l3();
  program.name = "with_p4auth";
  program.tables.push_back(TableShape{"reg_id_to_name_mapping", MatchKind::Exact, 40, 64, 256});
  program.registers.push_back(RegisterShape{"p4auth_keys", 65u * 64u});
  program.registers.push_back(RegisterShape{"p4auth_seq", 16384u * 32u});
  program.registers.push_back(RegisterShape{"p4auth_alert_cnt", 2u * 4096u * 32u});
  program.registers.push_back(RegisterShape{"p4auth_pending", 2u * 4096u * 32u});
  program.hash_uses.push_back(HashUse::halfsiphash("digest_verify", 22));
  program.hash_uses.push_back(HashUse::halfsiphash("digest_compute", 22));
  program.hash_uses.push_back(HashUse::crc32("kdf_extract"));
  program.hash_uses.push_back(HashUse::crc32("kdf_expand_1"));
  program.hash_uses.push_back(HashUse::crc32("kdf_expand_2"));
  program.hash_uses.push_back(HashUse::random_gen("dh_private_key"));
  // p4auth_h (112) + DH scratch (192) + KDF scratch (96) + digest scratch
  // (64) + seq/flags (32)
  program.header_phv_bits += 112;
  program.metadata_phv_bits += 384;
  return program;
}

// Table II reproduction targets: baseline 8.3/2.5/1.4/11, P4Auth
// 8.3/3.6/51.4/23.1 (TCAM/SRAM/Hash/PHV, % of budget).
TEST(ResourceModel, BaselineMatchesTableII) {
  const auto usage = compute_usage(baseline_l3());
  EXPECT_NEAR(usage.tcam_pct, 8.3, 0.5);
  EXPECT_NEAR(usage.sram_pct, 2.5, 0.5);
  EXPECT_NEAR(usage.hash_pct, 1.4, 0.5);
  EXPECT_NEAR(usage.phv_pct, 11.0, 1.0);
}

TEST(ResourceModel, P4AuthMatchesTableII) {
  const auto usage = compute_usage(with_p4auth());
  EXPECT_NEAR(usage.tcam_pct, 8.3, 0.5);       // unchanged: no new TCAM
  EXPECT_NEAR(usage.sram_pct, 3.6, 0.6);
  EXPECT_NEAR(usage.hash_pct, 51.4, 6.0);      // digest + KDF dominate
  EXPECT_NEAR(usage.phv_pct, 23.1, 1.5);
}

TEST(ResourceModel, P4AuthTcamIsExactlyBaseline) {
  EXPECT_EQ(compute_usage(baseline_l3()).tcam_blocks, compute_usage(with_p4auth()).tcam_blocks);
}

TEST(ResourceModel, SramScalesWithRegisterCount) {
  // §IX-B: SRAM grows linearly with the number of protected registers
  // (mapping-table entries) and ports (key register).
  auto program = with_p4auth();
  const auto base = compute_usage(program);
  program.registers.push_back(RegisterShape{"extra", 1024u * 1024u * 8u});
  const auto grown = compute_usage(program);
  EXPECT_GT(grown.sram_blocks, base.sram_blocks);
  EXPECT_EQ(grown.hash_units, base.hash_units);  // hash cost is constant
}

TEST(ResourceModel, HashCostIndependentOfTopology) {
  // "the usage does not vary based on the P4 program or network topology"
  // — digest hash units depend only on covered bytes, not table sizes.
  auto program = with_p4auth();
  const auto before = compute_usage(program).hash_units;
  program.tables[0].capacity *= 2;
  EXPECT_EQ(compute_usage(program).hash_units, before);
}

TEST(ResourceModel, EmptyProgramOnlyParserOverhead) {
  ProgramDeclaration empty;
  const auto usage = compute_usage(empty);
  EXPECT_EQ(usage.tcam_blocks, 0);
  EXPECT_EQ(usage.sram_blocks, 1);  // parser overhead
  EXPECT_EQ(usage.hash_units, 0);
  EXPECT_EQ(usage.phv_bits, 0);
}

TEST(ResourceModel, PercentagesAgainstCustomBudget) {
  ProgramDeclaration program;
  program.hash_uses.push_back(HashUse::crc32("x"));
  ResourceBudget tiny;
  tiny.hash_units = 4;
  EXPECT_DOUBLE_EQ(compute_usage(program, tiny).hash_pct, 25.0);
}

// Charging-rule boundaries: each ceiling must step at exact multiples of
// the block constants, not one entry/bit early or late.

int tcam_blocks_for(int key_bits, std::size_t capacity) {
  ProgramDeclaration program;
  program.tables.push_back(TableShape{"t", MatchKind::Lpm, key_bits, 64, capacity});
  return compute_usage(program).tcam_blocks;
}

TEST(ChargingRules, TcamKeyUnitBoundaryAt44Bits) {
  // ceil(key_bits/44): 44 -> 1 unit, 45 -> 2 units.
  EXPECT_EQ(tcam_blocks_for(kTcamKeyUnitBits, 1), 1);
  EXPECT_EQ(tcam_blocks_for(kTcamKeyUnitBits + 1, 1), 2);
  EXPECT_EQ(tcam_blocks_for(2 * kTcamKeyUnitBits, 1), 2);
  EXPECT_EQ(tcam_blocks_for(2 * kTcamKeyUnitBits + 1, 1), 3);
}

TEST(ChargingRules, TcamCapacityBoundaryAt512Entries) {
  // ceil(capacity/512): 512 -> 1 block, 513 -> 2 blocks (x1 key unit).
  EXPECT_EQ(tcam_blocks_for(32, kTcamEntriesPerBlock), 1);
  EXPECT_EQ(tcam_blocks_for(32, kTcamEntriesPerBlock + 1), 2);
  EXPECT_EQ(tcam_blocks_for(32, 2 * kTcamEntriesPerBlock), 2);
  EXPECT_EQ(tcam_blocks_for(32, 2 * kTcamEntriesPerBlock + 1), 3);
}

int register_sram_blocks(std::size_t total_bits) {
  ProgramDeclaration program;
  program.registers.push_back(RegisterShape{"r", total_bits});
  // Subtract the constant parser overhead to isolate the register charge.
  return compute_usage(program).sram_blocks - compute_usage(ProgramDeclaration{}).sram_blocks;
}

TEST(ChargingRules, RegisterSramBoundaryAt128KbBlocks) {
  // ceil(total_bits/131072): exactly one block up to the 128 Kb ceiling.
  EXPECT_EQ(register_sram_blocks(1), 1);
  EXPECT_EQ(register_sram_blocks(kSramBlockBits), 1);
  EXPECT_EQ(register_sram_blocks(kSramBlockBits + 1), 2);
  EXPECT_EQ(register_sram_blocks(3 * kSramBlockBits), 3);
  EXPECT_EQ(register_sram_blocks(3 * kSramBlockBits + 1), 4);
}

TEST(ChargingRules, ExactTableCapacityBoundaryAt1024Entries) {
  const auto blocks_for = [](std::size_t capacity) {
    ProgramDeclaration program;
    // 64-bit key + 64-bit action = one 128-bit SRAM word per entry.
    program.tables.push_back(TableShape{"e", MatchKind::Exact, 64, 64, capacity});
    return compute_usage(program).sram_blocks;
  };
  // ceil(capacity/1024) data blocks + 1 hash-way overhead block.
  EXPECT_EQ(blocks_for(kSramEntriesPerBlock + 1) - blocks_for(kSramEntriesPerBlock), 1);
  EXPECT_EQ(blocks_for(2 * kSramEntriesPerBlock), blocks_for(kSramEntriesPerBlock + 1));
}

TEST(ProgramDeclaration, DerivedFromModelDeclaresEachShapeOnce) {
  RegisterFile registers;
  RegisterArray* keys = registers.create("keys", RegisterId{1}, 9, 64).value();
  keys->mark_secret();
  RegisterArray* stats = registers.create("stats", RegisterId{2}, 1024, 32).value();

  using M = PipelineModel;
  M inner;
  inner.name = "inner";
  inner.hash_uses.push_back(HashUse::crc32("inner_hash"));
  inner.header_phv_bits = 100;
  inner.metadata_phv_bits = 10;
  inner.then(inner.add(M::parse("p")), M::reg_write(*stats));

  M m;
  m.name = "outer";
  m.hash_uses.push_back(HashUse::crc32("outer_hash"));
  m.header_phv_bits = 50;
  const auto entry = m.add(M::parse("p"));
  const auto read = m.then(entry, M::reg_read(*keys));
  const auto fwd = m.then(read, M::table(TableShape{"fwd", MatchKind::Exact, 32, 64, 16}));
  const auto write = m.then(fwd, M::reg_write(*keys));  // same array: declared once
  m.branch(write, m.splice(inner));
  m.then(entry, M::table(TableShape{"fwd", MatchKind::Exact, 32, 64, 16}));  // declared once
  m.then(entry, M::reg_read(RegisterShape{"notional", 512}));

  const ProgramDeclaration decl = m.declaration();
  EXPECT_EQ(decl.name, "outer");
  ASSERT_EQ(decl.tables.size(), 1u);
  EXPECT_EQ(decl.tables[0].capacity, 16u);
  ASSERT_EQ(decl.registers.size(), 3u);  // node order: keys, stats, notional
  EXPECT_EQ(decl.registers[0], (RegisterShape{"keys", 9u * 64u, /*secret=*/true}));
  EXPECT_EQ(decl.registers[1], (RegisterShape{"stats", 1024u * 32u, /*secret=*/false}));
  EXPECT_EQ(decl.registers[2], (RegisterShape{"notional", 512, /*secret=*/false}));
  ASSERT_EQ(decl.hash_uses.size(), 2u);  // splice carries the inner program's
  EXPECT_EQ(decl.hash_uses[0].label, "outer_hash");
  EXPECT_EQ(decl.hash_uses[1].label, "inner_hash");
  EXPECT_EQ(decl.header_phv_bits, 150);
  EXPECT_EQ(decl.metadata_phv_bits, 10);
}

// Digest-width sweep backing the §XI ablation bench.
class DigestWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(DigestWidthSweep, UnitsMonotoneInWidth) {
  const int lanes = GetParam();
  const auto use = HashUse::halfsiphash("d", 24, lanes);
  EXPECT_GT(use.units(), 0);
  if (lanes > 1) {
    const auto narrower = HashUse::halfsiphash("d", 24, lanes / 2);
    EXPECT_GT(use.units(), narrower.units());
    EXPECT_GE(use.stages(), narrower.stages());
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, DigestWidthSweep, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace p4auth::dataplane
