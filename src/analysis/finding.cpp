#include "analysis/finding.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "telemetry/json.hpp"

namespace p4auth::analysis {
namespace {

std::string_view sarif_level(Severity severity) noexcept {
  switch (severity) {
    case Severity::Info:
      return "note";
    case Severity::Warning:
      return "warning";
    case Severity::Error:
      return "error";
  }
  return "none";
}

/// Source anchor for a registry program: compositions live in the agent,
/// plain names in their app translation unit. SARIF tolerates URIs that
/// do not resolve, so synthetic report names degrade gracefully.
std::string program_source_uri(std::string_view program) {
  if (program.find("+p4auth") != std::string_view::npos) return "src/core/agent.cpp";
  if (program == "baseline_l3") return "src/apps/l3fwd/l3fwd.cpp";
  const std::string name(program);
  return "src/apps/" + name + "/" + name + ".cpp";
}

std::string_view rule_description(std::string_view rule) {
  if (rule == "model-verify-bypass") {
    return "an emit on a protected port is reachable with no successful digest-verify before it";
  }
  if (rule == "model-secret-egress") {
    return "a secret register read reaches an emit or punt without passing through the digest extern";
  }
  if (rule == "model-unauth-key-write") {
    return "a key-register install is reachable with no successful digest-verify before it";
  }
  if (rule == "model-budget-path") {
    return "worst-case per-path stage or hash work exceeds the declared budget";
  }
  if (rule == "model-dead-branch") {
    return "a reachable model branch is infeasible on every explored path";
  }
  if (rule == "model-unmodeled-path") {
    return "a corpus execution matches no model path projection";
  }
  if (rule == "model-ambiguous-path") {
    return "a corpus execution matches more than one distinct model projection";
  }
  if (rule == "model-exploration-limit") {
    return "path exploration hit a cap; no property is proved";
  }
  if (rule == "model-missing") {
    return "the program declares no PipelineModel while model checking was requested";
  }
  return "p4auth_lint static-analysis rule; see docs/ANALYSIS.md";
}

}  // namespace

std::string_view severity_name(Severity severity) noexcept {
  switch (severity) {
    case Severity::Info:
      return "info";
    case Severity::Warning:
      return "warning";
    case Severity::Error:
      return "error";
  }
  return "unknown";
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tuple(static_cast<int>(b.severity), std::string_view(a.rule),
                      std::string_view(a.message)) <
           std::tuple(static_cast<int>(a.severity), std::string_view(b.rule),
                      std::string_view(b.message));
  });
}

int count_findings(const std::vector<Finding>& findings, Severity severity) noexcept {
  int n = 0;
  for (const auto& finding : findings) {
    if (finding.severity == severity) ++n;
  }
  return n;
}

std::string report_json(const std::vector<ProgramReport>& reports) {
  telemetry::JsonWriter w;
  int errors = 0;
  int warnings = 0;
  w.begin_object();
  w.kv("schema", "p4auth.lint.v2");
  w.key("programs");
  w.begin_array();
  for (const auto& report : reports) {
    w.begin_object();
    w.kv("name", report.program);
    w.key("usage");
    w.begin_object();
    w.kv("tcam_blocks", static_cast<std::int64_t>(report.usage.tcam_blocks));
    w.kv("sram_blocks", static_cast<std::int64_t>(report.usage.sram_blocks));
    w.kv("hash_units", static_cast<std::int64_t>(report.usage.hash_units));
    w.kv("phv_bits", static_cast<std::int64_t>(report.usage.phv_bits));
    w.kv("stages", static_cast<std::int64_t>(report.usage.stages));
    w.kv("tcam_pct", report.usage.tcam_pct);
    w.kv("sram_pct", report.usage.sram_pct);
    w.kv("hash_pct", report.usage.hash_pct);
    w.kv("phv_pct", report.usage.phv_pct);
    w.end_object();
    w.key("model");
    if (report.model.ran) {
      w.begin_object();
      w.kv("nodes", static_cast<std::int64_t>(report.model.nodes));
      w.kv("paths", static_cast<std::int64_t>(report.model.paths));
      w.kv("projections", static_cast<std::int64_t>(report.model.projections));
      w.kv("visited_nodes", static_cast<std::int64_t>(report.model.visited_nodes));
      w.kv("traces", static_cast<std::int64_t>(report.model.traces));
      w.kv("matched", static_cast<std::int64_t>(report.model.matched));
      w.kv("truncated", report.model.truncated);
      w.end_object();
    } else {
      w.null();
    }
    w.key("findings");
    w.begin_array();
    for (const auto& finding : report.findings) {
      w.begin_object();
      w.kv("severity", severity_name(finding.severity));
      w.kv("rule", finding.rule);
      w.kv("message", finding.message);
      w.end_object();
    }
    w.end_array();
    errors += count_findings(report.findings, Severity::Error);
    warnings += count_findings(report.findings, Severity::Warning);
    w.end_object();
  }
  w.end_array();
  w.key("summary");
  w.begin_object();
  w.kv("errors", static_cast<std::int64_t>(errors));
  w.kv("warnings", static_cast<std::int64_t>(warnings));
  w.end_object();
  w.end_object();
  return w.take();
}

std::string report_text(const std::vector<ProgramReport>& reports) {
  std::string out;
  int errors = 0;
  int warnings = 0;
  for (const auto& report : reports) {
    out += report.program + ": ";
    if (report.findings.empty()) {
      out += "clean";
    } else {
      out += std::to_string(report.findings.size()) + " finding(s)";
    }
    out += "\n";
    for (const auto& finding : report.findings) {
      out += "  [";
      out += severity_name(finding.severity);
      out += "] ";
      out += finding.rule;
      out += ": ";
      out += finding.message;
      out += "\n";
    }
    errors += count_findings(report.findings, Severity::Error);
    warnings += count_findings(report.findings, Severity::Warning);
  }
  out += "summary: " + std::to_string(errors) + " error(s), " + std::to_string(warnings) +
         " warning(s)\n";
  return out;
}

std::string report_sarif(const std::vector<ProgramReport>& reports) {
  std::set<std::string_view> rules;
  for (const auto& report : reports) {
    for (const auto& finding : report.findings) rules.insert(finding.rule);
  }

  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("$schema", "https://json.schemastore.org/sarif-2.1.0.json");
  w.kv("version", "2.1.0");
  w.key("runs");
  w.begin_array();
  w.begin_object();
  w.key("tool");
  w.begin_object();
  w.key("driver");
  w.begin_object();
  w.kv("name", "p4auth_lint");
  w.key("rules");
  w.begin_array();
  for (const auto& rule : rules) {
    w.begin_object();
    w.kv("id", rule);
    w.key("shortDescription");
    w.begin_object();
    w.kv("text", rule_description(rule));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();  // driver
  w.end_object();  // tool
  w.key("results");
  w.begin_array();
  for (const auto& report : reports) {
    for (const auto& finding : report.findings) {
      w.begin_object();
      w.kv("ruleId", finding.rule);
      w.kv("level", sarif_level(finding.severity));
      w.key("message");
      w.begin_object();
      w.kv("text", finding.program + ": " + finding.message);
      w.end_object();
      w.key("locations");
      w.begin_array();
      w.begin_object();
      w.key("physicalLocation");
      w.begin_object();
      w.key("artifactLocation");
      w.begin_object();
      w.kv("uri", program_source_uri(finding.program));
      w.end_object();
      w.key("region");
      w.begin_object();
      w.kv("startLine", static_cast<std::int64_t>(1));
      w.end_object();
      w.end_object();  // physicalLocation
      w.end_object();
      w.end_array();
      // Stable dedup key so code scanning tracks a finding across pushes
      // even as line anchors move.
      w.key("partialFingerprints");
      w.begin_object();
      w.kv("p4authLint/v1", finding.program + "/" + finding.rule + "/" + finding.message);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();  // run
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace p4auth::analysis
