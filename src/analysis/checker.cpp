#include "analysis/checker.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>

namespace p4auth::analysis {
namespace {

using dataplane::ModelNode;
using dataplane::ModelNodeKind;
using dataplane::PipelineModel;

std::string render_path(const PipelineModel& model, const SymbolicPath& path,
                        std::size_t max_nodes = 16) {
  std::string out;
  const std::size_t shown = std::min(path.nodes.size(), max_nodes);
  for (std::size_t i = 0; i < shown; ++i) {
    if (!out.empty()) out += " -> ";
    const ModelNode& node = model.nodes[path.nodes[i]];
    out += model_node_kind_name(node.kind);
    if (!node.object.empty()) {
      out += ":";
      out += node.object;
    }
  }
  if (shown < path.nodes.size()) out += " -> ...";
  return out;
}

std::string render_trace(const ExecutionTrace& trace) {
  std::string out = "events: ";
  out += render_events(trace.events);
  out += ", emits=" + std::to_string(trace.emits);
  out += ", punts=" + std::to_string(trace.punts);
  out += trace.dropped ? ", dropped" : ", forwarded";
  return out;
}

}  // namespace

ModelCheck check_model(const dataplane::PipelineModel& model,
                       const ModelCheckOptions& options) {
  ModelCheck result;
  const auto add = [&](Severity severity, std::string rule, std::string message) {
    result.findings.push_back(
        Finding{severity, std::move(rule), model.name, std::move(message)});
  };

  if (model.empty()) {
    add(Severity::Error, "model-missing",
        "program declares no PipelineModel; the symbolic checker cannot prove "
        "verify-before-emit or secret-flow safety for it");
    sort_findings(result.findings);
    return result;
  }

  result.exploration = explore(model, options.limits);
  const Exploration& ex = result.exploration;
  if (ex.truncated) {
    add(Severity::Error, "model-exploration-limit",
        "path exploration hit a cap (max_paths=" +
            std::to_string(options.limits.max_paths) +
            ", max_depth=" + std::to_string(options.limits.max_depth) +
            ", max_node_revisits=" + std::to_string(options.limits.max_node_revisits) +
            ") after " + std::to_string(ex.paths.size()) +
            " path(s); the model likely cycles and no property is proved");
  }

  // --- per-path safety walks ------------------------------------------------
  // Dedupe by offending node so one bad emit reachable via many paths
  // reports once (with the first — shortest-first is not guaranteed, but
  // deterministic — witness path).
  std::set<std::size_t> bypass_nodes;
  std::set<std::size_t> egress_nodes;
  std::set<std::size_t> key_install_nodes;
  const SymbolicPath* worst_stage_path = nullptr;
  const SymbolicPath* worst_hash_path = nullptr;
  for (const SymbolicPath& path : ex.paths) {
    bool verified = false;
    bool tainted = false;
    std::size_t verify_cursor = 0;
    for (const std::size_t index : path.nodes) {
      const ModelNode& node = model.nodes[index];
      switch (node.kind) {
        case ModelNodeKind::DigestVerify: {
          // The matching Verify event in the projection carries the
          // outcome of the branch this path took out of the node.
          while (verify_cursor < path.events.size() &&
                 path.events[verify_cursor].kind != TraceEvent::Kind::Verify) {
            ++verify_cursor;
          }
          const bool ok = verify_cursor < path.events.size() &&
                          path.events[verify_cursor].ok;
          ++verify_cursor;
          if (ok) verified = true;
          tainted = false;  // key consumed as MAC key, not copied out
          break;
        }
        case ModelNodeKind::DigestCompute:
          tainted = false;
          break;
        case ModelNodeKind::RegisterRead:
          if (node.reg.secret) tainted = true;
          break;
        case ModelNodeKind::RegisterWrite:
          if (node.reg.secret && !verified &&
              key_install_nodes.insert(index).second) {
            add(Severity::Error, "model-unauth-key-write",
                "key-register write '" + node.object +
                    "' is reachable with no successful digest-verify before it "
                    "(path: " + render_path(model, path) + ")");
          }
          break;
        case ModelNodeKind::Emit:
          if (node.protected_port && !verified &&
              bypass_nodes.insert(index).second) {
            add(Severity::Error, "model-verify-bypass",
                "emit '" + node.object +
                    "' on a protected port is reachable with no successful "
                    "digest-verify dominating it (path: " +
                    render_path(model, path) + ")");
          }
          if (tainted && egress_nodes.insert(index).second) {
            add(Severity::Error, "model-secret-egress",
                "a secret register read reaches emit '" + node.object +
                    "' without passing through the digest extern (path: " +
                    render_path(model, path) + ")");
          }
          break;
        case ModelNodeKind::Punt:
          if (tainted && egress_nodes.insert(index).second) {
            add(Severity::Error, "model-secret-egress",
                "a secret register read reaches a punt to the controller "
                "without passing through the digest extern (path: " +
                    render_path(model, path) + ")");
          }
          break;
        default:
          break;
      }
    }
    if (worst_stage_path == nullptr || path.stage_cost > worst_stage_path->stage_cost) {
      worst_stage_path = &path;
    }
    if (worst_hash_path == nullptr || path.hash_cost > worst_hash_path->hash_cost) {
      worst_hash_path = &path;
    }
  }

  // --- worst-case per-path work vs the declared budget ----------------------
  if (worst_stage_path != nullptr &&
      worst_stage_path->stage_cost > options.budget.stages) {
    add(Severity::Error, "model-budget-path",
        "worst-case path occupies " + std::to_string(worst_stage_path->stage_cost) +
            " match-action stage(s) but the budget has " +
            std::to_string(options.budget.stages) +
            " (path: " + render_path(model, *worst_stage_path) + ")");
  }
  if (worst_hash_path != nullptr &&
      worst_hash_path->hash_cost > options.budget.hash_units) {
    add(Severity::Error, "model-budget-path",
        "worst-case path bills " + std::to_string(worst_hash_path->hash_cost) +
            " hash unit(s) but the budget has " +
            std::to_string(options.budget.hash_units) +
            " (path: " + render_path(model, *worst_hash_path) + ")");
  }

  // --- dead branches --------------------------------------------------------
  for (const auto& [index, b] : ex.dead_branches) {
    const ModelNode& node = model.nodes[index];
    const auto& branch = node.next[b];
    add(Severity::Warning, "model-dead-branch",
        "branch '" + (branch.label.empty() ? std::to_string(b) : branch.label) +
            "' out of " + std::string(model_node_kind_name(node.kind)) +
            (node.object.empty() ? "" : " '" + node.object + "'") +
            " is infeasible on every explored path (contradictory guards)");
  }

  std::set<std::string> keys;
  for (const SymbolicPath& path : ex.paths) keys.insert(projection_key(path));
  result.projections = keys.size();

  sort_findings(result.findings);
  return result;
}

ConformanceResult check_path_conformance(const Exploration& exploration,
                                         const std::vector<ExecutionTrace>& traces,
                                         std::string_view program) {
  ConformanceResult result;
  if (exploration.truncated) return result;

  // Dedupe paths into distinct observable projections first: replicated
  // parse alternatives that look identical from the audit hooks (e.g.
  // cache hit vs miss both emitting one response) are one projection.
  std::map<std::string, const SymbolicPath*> projections;
  for (const SymbolicPath& path : exploration.paths) {
    projections.emplace(projection_key(path), &path);
  }

  std::set<std::string> reported_unmodeled;
  std::set<std::string> reported_ambiguous;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const ExecutionTrace& trace = traces[i];
    std::size_t matches = 0;
    for (const auto& [key, path] : projections) {
      if (path_matches(*path, trace)) ++matches;
    }
    if (matches == 1) {
      ++result.matched;
      continue;
    }
    const std::string shape = render_trace(trace);
    if (matches == 0) {
      if (reported_unmodeled.insert(shape).second) {
        result.findings.push_back(Finding{
            Severity::Error, "model-unmodeled-path", std::string(program),
            "corpus execution #" + std::to_string(i) +
                " matches no model path (" + shape + ")"});
      }
    } else if (reported_ambiguous.insert(shape).second) {
      result.findings.push_back(Finding{
          Severity::Warning, "model-ambiguous-path", std::string(program),
          "corpus execution #" + std::to_string(i) + " matches " +
              std::to_string(matches) + " distinct model projections (" + shape +
              ")"});
    }
  }
  sort_findings(result.findings);
  return result;
}

}  // namespace p4auth::analysis
