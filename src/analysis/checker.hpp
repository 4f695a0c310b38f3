// Model-checker rule family over explored PipelineModel paths, plus the
// path-conformance audit that replays corpus executions onto model
// paths. Rule ids are stable (documented in docs/ANALYSIS.md):
//
//   model-missing            program opted out of model checking while
//                            --model was requested (no PipelineModel)
//   model-verify-bypass      an emit on a protected port is reachable on
//                            a path with no successful digest-verify
//                            before it (the P4Auth headline property)
//   model-secret-egress      a read of a secret register reaches an
//                            emit or punt without passing through the
//                            digest extern (declassification point)
//   model-unauth-key-write   a write to a secret register (a key
//                            install) is reachable on a path with no
//                            successful verify before it
//   model-budget-path        worst-case per-path stage / hash work
//                            exceeds the declared ResourceBudget
//   model-dead-branch        a reachable branch is infeasible on every
//                            explored path (contradictory guards)
//   model-exploration-limit  a path/depth/revisit cap fired; the path
//                            set is incomplete and no property is proved
//   model-unmodeled-path     a corpus execution's observable trace
//                            matches no model path projection
//   model-ambiguous-path     a corpus execution matches more than one
//                            distinct projection (model under-constrains
//                            observables)
#pragma once

#include <string_view>
#include <vector>

#include "analysis/finding.hpp"
#include "analysis/model.hpp"
#include "dataplane/pipeline_model.hpp"
#include "dataplane/resources.hpp"

namespace p4auth::analysis {

struct ModelCheckOptions {
  dataplane::ResourceBudget budget{};
  ExplorationLimits limits{};
};

struct ModelCheck {
  Exploration exploration;
  std::vector<Finding> findings;
  std::size_t projections = 0;  ///< distinct observable projections
};

/// Explores `model` and evaluates the static model rules against it.
/// Findings use model.name as the program.
ModelCheck check_model(const dataplane::PipelineModel& model,
                       const ModelCheckOptions& options = {});

struct ConformanceResult {
  std::vector<Finding> findings;
  std::size_t matched = 0;  ///< traces that mapped onto exactly one projection
};

/// Maps every captured execution trace onto the explored paths' observable
/// projections: unmatched traces are model-unmodeled-path errors, traces
/// matching several distinct projections are model-ambiguous-path
/// warnings. Skipped (empty result, matched == traces.size() impossible)
/// when the exploration was truncated — conformance over a partial path
/// set would mis-report.
ConformanceResult check_path_conformance(const Exploration& exploration,
                                         const std::vector<ExecutionTrace>& traces,
                                         std::string_view program);

}  // namespace p4auth::analysis
