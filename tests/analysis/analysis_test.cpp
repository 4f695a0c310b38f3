#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>

#include "analysis/audit.hpp"
#include "analysis/finding.hpp"
#include "analysis/registry.hpp"
#include "analysis/static_checks.hpp"
#include "crypto/mac.hpp"
#include "dataplane/digest_extern.hpp"
#include "dataplane/program.hpp"
#include "dataplane/resources.hpp"

namespace p4auth::analysis {
namespace {

using dataplane::HashUse;
using dataplane::MatchKind;
using dataplane::ProgramDeclaration;
using dataplane::RegisterShape;
using dataplane::ResourceBudget;
using dataplane::TableShape;

bool has_rule(const std::vector<Finding>& findings, std::string_view rule,
              Severity severity) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& finding) {
    return finding.rule == rule && finding.severity == severity;
  });
}

// ---------------------------------------------------------------------------
// Static checks: every rule fires on a deliberately-broken declaration.
// ---------------------------------------------------------------------------

ProgramDeclaration small_program() {
  ProgramDeclaration program;
  program.name = "broken";
  program.tables.push_back(TableShape{"t", MatchKind::Exact, 32, 64, 128});
  program.registers.push_back(RegisterShape{"r", 1024});
  return program;
}

TEST(StaticChecks, CleanProgramHasNoFindings) {
  EXPECT_TRUE(run_static_checks(small_program()).empty());
}

TEST(StaticChecks, DuplicateTable) {
  auto program = small_program();
  program.tables.push_back(TableShape{"t", MatchKind::Exact, 16, 64, 64});
  EXPECT_TRUE(has_rule(run_static_checks(program), "decl-duplicate-table", Severity::Error));
}

TEST(StaticChecks, DuplicateRegister) {
  auto program = small_program();
  program.registers.push_back(RegisterShape{"r", 1024});
  EXPECT_TRUE(
      has_rule(run_static_checks(program), "decl-duplicate-register", Severity::Error));
}

TEST(StaticChecks, ZeroCapacityTable) {
  auto program = small_program();
  program.tables.push_back(TableShape{"empty", MatchKind::Exact, 32, 64, 0});
  EXPECT_TRUE(
      has_rule(run_static_checks(program), "decl-zero-capacity-table", Severity::Error));
}

TEST(StaticChecks, ZeroSizeRegister) {
  auto program = small_program();
  program.registers.push_back(RegisterShape{"hollow", 0});
  EXPECT_TRUE(
      has_rule(run_static_checks(program), "decl-zero-size-register", Severity::Error));
}

TEST(StaticChecks, TcamOvercommit) {
  auto program = small_program();
  program.tables.push_back(TableShape{"lpm", MatchKind::Lpm, 32, 64, 1u << 20});
  EXPECT_TRUE(has_rule(run_static_checks(program), "budget-tcam-overcommit", Severity::Error));
}

TEST(StaticChecks, SramOvercommit) {
  auto program = small_program();
  program.registers.push_back(RegisterShape{"huge", 2048ull * dataplane::kSramBlockBits});
  EXPECT_TRUE(has_rule(run_static_checks(program), "budget-sram-overcommit", Severity::Error));
}

TEST(StaticChecks, HashOvercommit) {
  auto program = small_program();
  for (int i = 0; i < 100; ++i) program.hash_uses.push_back(HashUse::crc32("h"));
  EXPECT_TRUE(has_rule(run_static_checks(program), "budget-hash-overcommit", Severity::Error));
}

TEST(StaticChecks, PhvOverflow) {
  auto program = small_program();
  program.header_phv_bits = 8192;
  EXPECT_TRUE(has_rule(run_static_checks(program), "budget-phv-overflow", Severity::Error));
}

TEST(StaticChecks, StageTcamInfeasible) {
  auto program = small_program();
  // 1100 key bits need 25 key units; one stage provides 288/12 = 24.
  program.tables.push_back(TableShape{"wide", MatchKind::Ternary, 1100, 64, 128});
  const auto findings = run_static_checks(program);
  EXPECT_TRUE(has_rule(findings, "stage-tcam-infeasible", Severity::Error));
}

TEST(StaticChecks, StageHashInfeasible) {
  auto program = small_program();
  // 512 covered bytes => 2*128+4 = 260 units; the whole pipe has 80.
  program.hash_uses.push_back(HashUse::halfsiphash("giant", 512));
  const auto findings = run_static_checks(program);
  EXPECT_TRUE(has_rule(findings, "stage-hash-infeasible", Severity::Error));
}

TEST(StaticChecks, ExactTablesAreNotStageTcamChecked) {
  auto program = small_program();
  program.tables.push_back(TableShape{"wide_exact", MatchKind::Exact, 1100, 64, 128});
  EXPECT_FALSE(
      has_rule(run_static_checks(program), "stage-tcam-infeasible", Severity::Error));
}

// ---------------------------------------------------------------------------
// Conformance audit: one deliberately-misdeclared program per rule.
// ---------------------------------------------------------------------------

/// Configurable misbehaving program: declares one footprint, does another.
class FakeProgram : public dataplane::DataPlaneProgram {
 public:
  ProgramDeclaration decl;
  dataplane::RegisterArray* touch_register = nullptr;
  std::string note_table_name;
  int hashes_per_packet = 0;
  int batch_lanes = 0;  ///< >0: one compute_batch of this width per packet
  Bytes emit_payload;

  dataplane::PipelineOutput process(dataplane::Packet& packet,
                                    dataplane::PipelineContext& ctx) override {
    if (touch_register != nullptr) {
      (void)touch_register->write(0, touch_register->read(0).value_or(0) + 1);
    }
    if (!note_table_name.empty()) ctx.note_table(note_table_name);
    for (int i = 0; i < hashes_per_packet; ++i) ctx.costs().add_hash(8);
    if (batch_lanes > 0) {
      // A within-pass multi-lane digest through the real extern — what
      // the audit-hash-lanes-drift rule diffs against HashUse::lanes.
      static constexpr std::array<std::uint8_t, 8> kMsg{1, 2, 3, 4, 5, 6, 7, 8};
      const dataplane::DigestExtern digest(crypto::MacKind::HalfSipHash24);
      std::array<crypto::DigestJob, 8> jobs{};
      std::array<Digest32, 8> tags{};
      for (int i = 0; i < batch_lanes; ++i) {
        jobs[static_cast<std::size_t>(i)] =
            crypto::DigestJob{0x55, std::span<const std::uint8_t>(kMsg), {}};
      }
      digest.compute_batch(
          std::span<const crypto::DigestJob>(jobs.data(), static_cast<std::size_t>(batch_lanes)),
          std::span<Digest32>(tags.data(), static_cast<std::size_t>(batch_lanes)), ctx.costs());
    }
    if (!emit_payload.empty()) {
      return dataplane::PipelineOutput::unicast(PortId{1}, emit_payload);
    }
    (void)packet;
    return dataplane::PipelineOutput{};
  }

  ProgramDeclaration resources() const override { return decl; }
};

/// Builds a FakeProgram inside a session and runs one packet through it.
FakeProgram& install(AuditSession& session, ProgramDeclaration decl) {
  auto program = std::make_unique<FakeProgram>();
  program->decl = std::move(decl);
  auto& ref = *program;
  session.adopt(std::move(program));
  return ref;
}

TEST(ConformanceAudit, UndeclaredRegister) {
  AuditSession session;
  auto* reg = session.registers().create("ghost_reg", RegisterId{1}, 8, 32).value();
  auto& program = install(session, ProgramDeclaration{});
  program.touch_register = reg;
  session.inject(Bytes{1}, PortId{1});
  EXPECT_TRUE(has_rule(run_conformance_audit(session), "audit-undeclared-register",
                       Severity::Error));
}

TEST(ConformanceAudit, HarnessSetupWritesAreNotProgramUsage) {
  AuditSession session;
  auto* reg = session.registers().create("preloaded", RegisterId{1}, 8, 32).value();
  ProgramDeclaration decl;
  install(session, std::move(decl));
  (void)reg->write(0, 7);  // setup write, before the first inject
  session.inject(Bytes{1}, PortId{1});
  EXPECT_FALSE(has_rule(run_conformance_audit(session), "audit-undeclared-register",
                        Severity::Error));
}

TEST(ConformanceAudit, DeadRegister) {
  AuditSession session;
  (void)session.registers().create("unused_reg", RegisterId{1}, 8, 32).value();
  ProgramDeclaration decl;
  decl.registers.push_back(RegisterShape{"unused_reg", 256});
  install(session, std::move(decl));
  session.inject(Bytes{1}, PortId{1});
  EXPECT_TRUE(
      has_rule(run_conformance_audit(session), "audit-dead-register", Severity::Warning));
}

TEST(ConformanceAudit, PhantomRegister) {
  AuditSession session;
  ProgramDeclaration decl;
  decl.registers.push_back(RegisterShape{"notional_only", 256});
  install(session, std::move(decl));
  session.inject(Bytes{1}, PortId{1});
  EXPECT_TRUE(
      has_rule(run_conformance_audit(session), "audit-phantom-register", Severity::Info));
}

TEST(ConformanceAudit, UndeclaredTable) {
  AuditSession session;
  auto& program = install(session, ProgramDeclaration{});
  program.note_table_name = "ghost_table";
  session.inject(Bytes{1}, PortId{1});
  EXPECT_TRUE(
      has_rule(run_conformance_audit(session), "audit-undeclared-table", Severity::Error));
}

TEST(ConformanceAudit, DeadTable) {
  AuditSession session;
  ProgramDeclaration decl;
  decl.tables.push_back(TableShape{"never_looked_up", MatchKind::Exact, 32, 64, 16});
  install(session, std::move(decl));
  session.inject(Bytes{1}, PortId{1});
  EXPECT_TRUE(has_rule(run_conformance_audit(session), "audit-dead-table", Severity::Warning));
}

TEST(ConformanceAudit, UndeclaredHash) {
  AuditSession session;
  auto& program = install(session, ProgramDeclaration{});
  program.hashes_per_packet = 1;
  session.inject(Bytes{1}, PortId{1});
  EXPECT_TRUE(
      has_rule(run_conformance_audit(session), "audit-undeclared-hash", Severity::Error));
}

TEST(ConformanceAudit, HashDrift) {
  AuditSession session;
  ProgramDeclaration decl;
  decl.hash_uses.push_back(HashUse::crc32("one_declared"));
  auto& program = install(session, std::move(decl));
  program.hashes_per_packet = 3;  // 3 calls/pass vs 1 declared use
  session.inject(Bytes{1}, PortId{1});
  EXPECT_TRUE(has_rule(run_conformance_audit(session), "audit-hash-drift", Severity::Error));
}

TEST(ConformanceAudit, HashLanesDrift) {
  AuditSession session;
  ProgramDeclaration decl;
  // Declares scalar (lane-1) digests but batches 4 per extern call.
  for (int i = 0; i < 4; ++i) decl.hash_uses.push_back(HashUse::halfsiphash("scalar_use", 8));
  auto& program = install(session, std::move(decl));
  program.batch_lanes = 4;
  session.inject(Bytes{1}, PortId{1});
  EXPECT_TRUE(
      has_rule(run_conformance_audit(session), "audit-hash-lanes-drift", Severity::Error));
}

TEST(ConformanceAudit, DeclaredLaneWidthIsClean) {
  AuditSession session;
  ProgramDeclaration decl;
  for (int i = 0; i < 4; ++i) {
    decl.hash_uses.push_back(HashUse::halfsiphash("lane_use", 8, /*lanes=*/4));
  }
  auto& program = install(session, std::move(decl));
  program.batch_lanes = 4;
  session.inject(Bytes{1}, PortId{1});
  EXPECT_FALSE(
      has_rule(run_conformance_audit(session), "audit-hash-lanes-drift", Severity::Error));
}

TEST(ConformanceAudit, DeadHash) {
  AuditSession session;
  ProgramDeclaration decl;
  decl.hash_uses.push_back(HashUse::crc32("declared_but_idle"));
  install(session, std::move(decl));
  session.inject(Bytes{1}, PortId{1});
  EXPECT_TRUE(has_rule(run_conformance_audit(session), "audit-dead-hash", Severity::Warning));
}

TEST(ConformanceAudit, MatchingUsageIsClean) {
  AuditSession session;
  auto* reg = session.registers().create("counted", RegisterId{1}, 8, 32).value();
  ProgramDeclaration decl;
  decl.registers.push_back(RegisterShape{"counted", 256});
  decl.tables.push_back(TableShape{"noted", MatchKind::Exact, 32, 64, 16});
  decl.hash_uses.push_back(HashUse::crc32("used"));
  auto& program = install(session, std::move(decl));
  program.touch_register = reg;
  program.note_table_name = "noted";
  program.hashes_per_packet = 1;
  session.inject(Bytes{1}, PortId{1});
  EXPECT_TRUE(run_conformance_audit(session).empty());
}

TEST(ConformanceAudit, SecretLeak) {
  AuditSession session;
  auto* key_reg = session.registers().create("fake_keys", RegisterId{1}, 4, 64).value();
  key_reg->mark_secret();
  auto& program = install(session, ProgramDeclaration{});
  constexpr std::uint64_t kKey = 0x1122334455667788ull;
  // Emit the key verbatim (little-endian) in the middle of a frame.
  Bytes leak{0xAA, 0xBB};
  for (int i = 0; i < 8; ++i) leak.push_back(static_cast<std::uint8_t>(kKey >> (8 * i)));
  leak.push_back(0xCC);
  program.emit_payload = leak;
  session.inject(Bytes{1}, PortId{1});
  (void)key_reg->write(0, kKey);  // the secret the program "copied out"
  EXPECT_TRUE(has_rule(run_conformance_audit(session), "audit-secret-leak", Severity::Error));
}

TEST(ConformanceAudit, DigestSizedOutputDoesNotLeak) {
  AuditSession session;
  auto* key_reg = session.registers().create("fake_keys", RegisterId{1}, 4, 64).value();
  key_reg->mark_secret();
  auto& program = install(session, ProgramDeclaration{});
  program.emit_payload = Bytes{0x11, 0x22, 0x33, 0x44};  // 32-bit digest-sized
  session.inject(Bytes{1}, PortId{1});
  (void)key_reg->write(0, 0x1122334455667788ull);
  EXPECT_FALSE(
      has_rule(run_conformance_audit(session), "audit-secret-leak", Severity::Error));
}

// ---------------------------------------------------------------------------
// Registry: the shipped programs pass, reports are deterministic.
// ---------------------------------------------------------------------------

TEST(Registry, FindProgram) {
  EXPECT_NE(find_program("l3fwd"), nullptr);
  EXPECT_NE(find_program("l3fwd+p4auth"), nullptr);
  EXPECT_EQ(find_program("nonexistent"), nullptr);
}

TEST(Registry, AllShippedProgramsHaveNoErrors) {
  for (const auto& report : lint_all()) {
    EXPECT_EQ(count_findings(report.findings, Severity::Error), 0)
        << report.program << ": " << report_text({report});
  }
}

TEST(Registry, ShippedAppsHaveNoWarningsEither) {
  for (const auto& report : lint_all()) {
    EXPECT_EQ(count_findings(report.findings, Severity::Warning), 0)
        << report.program << ": " << report_text({report});
  }
}

TEST(Registry, AgentCompositionDeclaresNotionalState) {
  const auto* entry = find_program("l3fwd+p4auth");
  ASSERT_NE(entry, nullptr);
  const auto report = lint_program(*entry);
  // The seq/alert/pending registers are notional (host-modelled): the
  // audit records them as phantom infos, never errors.
  EXPECT_TRUE(has_rule(report.findings, "audit-phantom-register", Severity::Info));
  EXPECT_EQ(count_findings(report.findings, Severity::Error), 0);
}

TEST(Registry, JsonReportIsDeterministic) {
  const auto first = report_json(lint_all());
  const auto second = report_json(lint_all());
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"schema\":\"p4auth.lint.v2\""), std::string::npos);
  EXPECT_NE(first.find("\"summary\""), std::string::npos);
}

TEST(Registry, ReportCarriesUsagePercentages) {
  const auto* entry = find_program("l3fwd");
  ASSERT_NE(entry, nullptr);
  const auto report = lint_program(*entry);
  EXPECT_NEAR(report.usage.tcam_pct, 8.3, 0.5);  // Table II baseline row
  EXPECT_GT(report.usage.sram_blocks, 0);
}

TEST(Finding, SortOrdersErrorsFirst) {
  std::vector<Finding> findings{
      {Severity::Info, "z-rule", "p", "m"},
      {Severity::Error, "b-rule", "p", "m"},
      {Severity::Warning, "a-rule", "p", "m"},
      {Severity::Error, "a-rule", "p", "m"},
  };
  sort_findings(findings);
  EXPECT_EQ(findings[0].rule, "a-rule");
  EXPECT_EQ(findings[0].severity, Severity::Error);
  EXPECT_EQ(findings[1].rule, "b-rule");
  EXPECT_EQ(findings[3].severity, Severity::Info);
}

}  // namespace
}  // namespace p4auth::analysis
