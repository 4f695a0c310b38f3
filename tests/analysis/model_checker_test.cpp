// Symbolic pipeline model checker: rule-by-rule negative tests on
// hand-built (and mutated real) models, clean-tree proofs over the whole
// registry, and path-conformance / determinism coverage.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/audit.hpp"
#include "analysis/checker.hpp"
#include "analysis/model.hpp"
#include "analysis/registry.hpp"
#include "analysis/static_checks.hpp"

namespace p4auth::analysis {
namespace {

using dataplane::ModelNodeKind;
using dataplane::PipelineModel;
using dataplane::RegisterShape;
using dataplane::TableShape;
using M = PipelineModel;

bool has_rule(const std::vector<Finding>& findings, std::string_view rule,
              Severity severity) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& finding) {
    return finding.rule == rule && finding.severity == severity;
  });
}

bool has_model_rule(const std::vector<Finding>& findings) {
  return std::any_of(findings.begin(), findings.end(), [](const Finding& finding) {
    return finding.rule.rfind("model-", 0) == 0;
  });
}

/// A table node with a plausible shape; the rule fixtures only care
/// about its name.
dataplane::ModelNode table(std::string name) {
  return M::table(TableShape{std::move(name), dataplane::MatchKind::Exact, 32, 64, 16});
}

/// A register holding key material: reads taint, writes install keys.
RegisterShape secret_register(std::string name) {
  return RegisterShape{std::move(name), 1024, /*secret=*/true};
}

// ---------------------------------------------------------------------------
// Rule negatives: every model-* rule fires on a seeded mutant.
// ---------------------------------------------------------------------------

TEST(ModelChecker, VerifyBypassFiresOnUnverifiedProtectedEmit) {
  M m;
  m.name = "bypass";
  const auto entry = m.add(M::parse("p"));
  m.then(entry, M::emit("dp_data", /*protected_port=*/true));
  const auto check = check_model(m);
  EXPECT_TRUE(has_rule(check.findings, "model-verify-bypass", Severity::Error));
}

TEST(ModelChecker, VerifyDominatingProtectedEmitIsClean) {
  M m;
  m.name = "verified";
  const auto entry = m.add(M::parse("p"));
  const auto key = m.then(entry, M::reg_read(secret_register("keys")));
  const auto verify = m.then(key, M::verify("dp_verify"));
  m.then(verify, M::drop(), "fail");
  m.then(verify, M::emit("dp_data", /*protected_port=*/true), "ok");
  const auto check = check_model(m);
  EXPECT_FALSE(has_model_rule(check.findings));
  // Two feasible paths: verify-ok emit, verify-fail drop.
  EXPECT_EQ(check.exploration.paths.size(), 2u);
}

TEST(ModelChecker, FailEdgeEmitStillFiresBypass) {
  // The mutant: the emit rides the *fail* edge of the verify.
  M m;
  m.name = "fail-edge";
  const auto entry = m.add(M::parse("p"));
  const auto verify = m.then(entry, M::verify("dp_verify"));
  m.then(verify, M::drop(), "ok");
  m.then(verify, M::emit("dp_data", /*protected_port=*/true), "fail");
  const auto check = check_model(m);
  EXPECT_TRUE(has_rule(check.findings, "model-verify-bypass", Severity::Error));
}

TEST(ModelChecker, SecretEgressFiresOnUndigestedEmit) {
  M m;
  m.name = "egress";
  const auto entry = m.add(M::parse("p"));
  const auto key = m.then(entry, M::reg_read(secret_register("keys")));
  m.then(key, M::emit("data"));
  const auto check = check_model(m);
  EXPECT_TRUE(has_rule(check.findings, "model-secret-egress", Severity::Error));
}

TEST(ModelChecker, SecretEgressFiresOnUndigestedPunt) {
  M m;
  m.name = "egress-punt";
  const auto entry = m.add(M::parse("p"));
  const auto key = m.then(entry, M::reg_read(secret_register("keys")));
  m.then(key, M::punt());
  const auto check = check_model(m);
  EXPECT_TRUE(has_rule(check.findings, "model-secret-egress", Severity::Error));
}

TEST(ModelChecker, DigestDeclassifiesSecretRead) {
  M m;
  m.name = "declassified";
  const auto entry = m.add(M::parse("p"));
  const auto key = m.then(entry, M::reg_read(secret_register("keys")));
  const auto tag = m.then(key, M::digest("digest_compute"));
  m.then(tag, M::punt());
  const auto check = check_model(m);
  EXPECT_FALSE(has_model_rule(check.findings));
}

TEST(ModelChecker, UnauthKeyWriteFiresWithoutVerify) {
  M m;
  m.name = "key-write";
  const auto entry = m.add(M::parse("p"));
  const auto install = m.then(entry, M::reg_write(secret_register("keys")));
  m.then(install, M::consume());
  const auto check = check_model(m);
  EXPECT_TRUE(has_rule(check.findings, "model-unauth-key-write", Severity::Error));
}

TEST(ModelChecker, KeyWriteAfterVerifyIsClean) {
  M m;
  m.name = "key-write-ok";
  const auto entry = m.add(M::parse("p"));
  const auto verify = m.then(entry, M::verify("kmp_verify"));
  m.then(verify, M::drop(), "fail");
  const auto install = m.then(verify, M::reg_write(secret_register("keys")), "ok");
  m.then(install, M::consume());
  const auto check = check_model(m);
  EXPECT_FALSE(has_model_rule(check.findings));
}

TEST(ModelChecker, BudgetPathFiresOnStageOverrun) {
  M m;
  m.name = "stages";
  const auto entry = m.add(M::parse("p"));
  const auto t1 = m.then(entry, table("t1"));
  const auto t2 = m.then(t1, table("t2"));
  const auto t3 = m.then(t2, table("t3"));
  m.then(t3, M::emit("data"));
  ModelCheckOptions options;
  options.budget.stages = 2;
  const auto check = check_model(m, options);
  EXPECT_TRUE(has_rule(check.findings, "model-budget-path", Severity::Error));
}

TEST(ModelChecker, BudgetPathFiresOnHashOverrun) {
  M m;
  m.name = "hash";
  const auto entry = m.add(M::parse("p"));
  const auto verify = m.then(entry, M::verify("v"));
  m.then(verify, M::drop(), "fail");
  const auto kdf = m.then(verify, M::digest("kdf"), "ok");
  m.then(kdf, M::emit("data"));
  ModelCheckOptions options;
  options.budget.hash_units = 1;  // the worst path bills 2
  const auto check = check_model(m, options);
  EXPECT_TRUE(has_rule(check.findings, "model-budget-path", Severity::Error));
}

TEST(ModelChecker, DeadBranchFiresOnContradictoryGuards) {
  M m;
  m.name = "dead";
  const auto entry = m.add(M::parse("p"));
  const auto mid = m.then(entry, table("t"), "only", {{"hdr.valid", true}});
  m.then(mid, M::emit("data"), "live", {{"hdr.valid", true}});
  m.then(mid, M::drop(), "dead", {{"hdr.valid", false}});  // contradicts entry guard
  const auto check = check_model(m);
  EXPECT_TRUE(has_rule(check.findings, "model-dead-branch", Severity::Warning));
}

TEST(ModelChecker, ExplorationLimitFiresOnCycle) {
  M m;
  m.name = "cycle";
  const auto entry = m.add(M::parse("p"));
  m.branch(entry, entry);  // unbounded loop
  const auto check = check_model(m);
  EXPECT_TRUE(check.exploration.truncated);
  EXPECT_TRUE(has_rule(check.findings, "model-exploration-limit", Severity::Error));
  // Conformance must refuse to judge a partial path set.
  const auto conformance =
      check_path_conformance(check.exploration, {ExecutionTrace{}}, "cycle");
  EXPECT_TRUE(conformance.findings.empty());
  EXPECT_EQ(conformance.matched, 0u);
}

TEST(ModelChecker, MissingModelIsAnError) {
  PipelineModel m;
  m.name = "no-model";
  const auto check = check_model(m);
  EXPECT_TRUE(has_rule(check.findings, "model-missing", Severity::Error));
}

// ---------------------------------------------------------------------------
// The declaration derived from the model.
// ---------------------------------------------------------------------------

TEST(ModelDeclaration, ConflictingShapesUnderOneNameFireDuplicates) {
  // One register name at two sizes and one table name at two capacities:
  // both shapes of each are declared, so the static checks see the
  // conflict instead of billing whichever node came first.
  M m;
  m.name = "conflict";
  const auto entry = m.add(M::parse("p"));
  const auto small = m.then(entry, M::reg_read(RegisterShape{"state", 1024}));
  const auto big = m.then(small, M::reg_write(RegisterShape{"state", 4096}));
  const auto first =
      m.then(big, M::table(TableShape{"t", dataplane::MatchKind::Exact, 32, 64, 16}));
  const auto second =
      m.then(first, M::table(TableShape{"t", dataplane::MatchKind::Exact, 32, 64, 32}));
  m.then(second, M::drop());
  const auto decl = m.declaration();
  ASSERT_EQ(decl.registers.size(), 2u);
  ASSERT_EQ(decl.tables.size(), 2u);
  const auto findings = run_static_checks(decl);
  EXPECT_TRUE(has_rule(findings, "decl-duplicate-register", Severity::Error));
  EXPECT_TRUE(has_rule(findings, "decl-duplicate-table", Severity::Error));
}

// ---------------------------------------------------------------------------
// Path conformance.
// ---------------------------------------------------------------------------

TEST(ModelConformance, UnmodeledTraceIsAnError) {
  M m;
  m.name = "simple";
  const auto entry = m.add(M::parse("p"));
  m.then(entry, M::emit("data"));
  const auto exploration = explore(m);
  ExecutionTrace trace;
  trace.punts = 1;  // the model never punts
  const auto result = check_path_conformance(exploration, {trace}, "simple");
  EXPECT_TRUE(has_rule(result.findings, "model-unmodeled-path", Severity::Error));
  EXPECT_EQ(result.matched, 0u);
}

TEST(ModelConformance, AmbiguousTraceIsAWarning) {
  M m;
  m.name = "ambiguous";
  const auto entry = m.add(M::parse("p"));
  m.then(entry, M::emit("data"), "one", {{"hdr.a", true}});
  m.then(entry, M::emit("probe", /*protected_port=*/false, /*multi=*/true), "many",
         {{"hdr.a", false}});
  const auto exploration = explore(m);
  ExecutionTrace trace;
  trace.emits = 1;  // matches both the fixed-1 and the 1..N projection
  const auto result = check_path_conformance(exploration, {trace}, "ambiguous");
  EXPECT_TRUE(has_rule(result.findings, "model-ambiguous-path", Severity::Warning));
}

TEST(ModelConformance, MatchingTraceMapsToExactlyOneProjection) {
  M m;
  m.name = "match";
  const auto entry = m.add(M::parse("p"));
  const auto t = m.then(entry, table("fwd"), "valid", {{"hdr.valid", true}});
  m.then(t, M::emit("data"), "hit", {{"tbl.fwd.hit", true}});
  m.then(t, M::drop(), "miss", {{"tbl.fwd.hit", false}});
  m.then(entry, M::drop(), "malformed", {{"hdr.valid", false}});
  const auto exploration = explore(m);
  ExecutionTrace trace;
  trace.events.push_back({TraceEvent::Kind::Table, "fwd", true});
  trace.emits = 1;
  const auto result = check_path_conformance(exploration, {trace}, "match");
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(result.matched, 1u);
}

// ---------------------------------------------------------------------------
// The real tree: clean proofs, mutant of the real agent model, determinism.
// ---------------------------------------------------------------------------

TEST(ModelRegistry, EveryProgramConformsWithNoModelFindings) {
  LintOptions options;
  options.model = true;
  for (const auto& entry : builtin_programs()) {
    const auto report = lint_program(entry, options);
    SCOPED_TRACE(report.program);
    EXPECT_TRUE(report.model.ran);
    EXPECT_FALSE(report.model.truncated);
    EXPECT_FALSE(has_model_rule(report.findings));
    // Path conformance: every corpus execution maps onto exactly one
    // model projection — no unmodeled behaviour, no drift.
    EXPECT_GT(report.model.traces, 0u);
    EXPECT_EQ(report.model.matched, report.model.traces);
    EXPECT_GT(report.model.paths, 0u);
    EXPECT_EQ(count_findings(report.findings, Severity::Error), 0);
  }
}

TEST(ModelRegistry, AgentModelProvesVerifyBeforeEmit) {
  // The headline property on the real composition: strip every
  // DigestVerify from the agent's model and both key-install and
  // protected-emit proofs must collapse.
  const auto* entry = find_program("l3fwd+p4auth");
  ASSERT_NE(entry, nullptr);
  AuditSession session;
  entry->run(session);
  auto model = session.program().pipeline_model();
  ASSERT_FALSE(model.empty());

  const auto clean = check_model(model);
  EXPECT_FALSE(has_model_rule(clean.findings));

  for (auto& node : model.nodes) {
    if (node.kind == ModelNodeKind::DigestVerify) node.kind = ModelNodeKind::Parse;
  }
  const auto mutated = check_model(model);
  EXPECT_TRUE(has_rule(mutated.findings, "model-verify-bypass", Severity::Error));
  EXPECT_TRUE(has_rule(mutated.findings, "model-unauth-key-write", Severity::Error));
}

TEST(ModelRegistry, ObservedTracesAreDeterministic) {
  const auto* entry = find_program("l3fwd+p4auth");
  ASSERT_NE(entry, nullptr);
  AuditSession first;
  AuditSession second;
  entry->run(first);
  entry->run(second);
  EXPECT_EQ(first.observed().traces, second.observed().traces);
  const auto& traces = first.observed().traces;
  ASSERT_FALSE(traces.empty());
  // The corpus exercises the verify hooks, so conformance is meaningful.
  EXPECT_TRUE(std::any_of(traces.begin(), traces.end(), [](const ExecutionTrace& t) {
    return std::any_of(t.events.begin(), t.events.end(), [](const TraceEvent& e) {
      return e.kind == TraceEvent::Kind::Verify;
    });
  }));
}

TEST(ModelRegistry, ReportsAreDeterministicSeriallyAndInParallel) {
  LintOptions options;
  options.model = true;
  const auto serial_first = lint_all(options);
  const auto serial_second = lint_all(options);
  EXPECT_EQ(report_json(serial_first), report_json(serial_second));
  EXPECT_EQ(report_sarif(serial_first), report_sarif(serial_second));

  // One worker per program, all sessions concurrent (the ctest --jobs
  // shape): results must be byte-identical to the serial run.
  const auto& entries = builtin_programs();
  std::vector<ProgramReport> parallel(entries.size());
  std::vector<std::thread> workers;
  workers.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    workers.emplace_back(
        [&parallel, &entries, &options, i] { parallel[i] = lint_program(entries[i], options); });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(report_json(parallel), report_json(serial_first));
}

TEST(ModelRegistry, JsonModelBlockPresentOnlyWhenRequested) {
  const auto* entry = find_program("l3fwd");
  ASSERT_NE(entry, nullptr);
  LintOptions with_model;
  with_model.model = true;
  const auto on = report_json({lint_program(*entry, with_model)});
  EXPECT_NE(on.find("\"model\":{"), std::string::npos);
  EXPECT_NE(on.find("\"projections\""), std::string::npos);
  const auto off = report_json({lint_program(*entry, LintOptions{})});
  EXPECT_NE(off.find("\"model\":null"), std::string::npos);
}

TEST(ModelRegistry, SarifCarriesRulesAndLocations) {
  LintOptions options;
  options.model = true;
  const auto* entry = find_program("l3fwd+p4auth");
  ASSERT_NE(entry, nullptr);
  auto report = lint_program(*entry, options);
  // Seed a synthetic finding so the SARIF body has a result to render.
  report.findings.push_back(Finding{Severity::Warning, "model-dead-branch",
                                    report.program, "synthetic witness"});
  const auto sarif = report_sarif({report});
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"model-dead-branch\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\":\"warning\""), std::string::npos);
  EXPECT_NE(sarif.find("src/core/agent.cpp"), std::string::npos);
}

}  // namespace
}  // namespace p4auth::analysis
