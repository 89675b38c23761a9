// Test-only checks of NNF circuits. Two exhaustive oracles, which
// evaluate the circuit under every assignment and so share no code with
// the library's linear-time queries, and RuleIds, the property checks of
// the static analyzer (analysis/nnf_analyzer.h) as a set of rule ids.
// Test code only; instances stay small.

#ifndef TBC_TESTS_NNF_ORACLE_H_
#define TBC_TESTS_NNF_ORACLE_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/nnf_analyzer.h"
#include "base/check.h"
#include "nnf/nnf.h"

namespace tbc::nnf_oracle {

/// Checks *determinism* (paper Fig 7) exhaustively: under every assignment
/// to the first `num_vars` variables, every or-gate has at most one high
/// input. Exponential in num_vars (num_vars <= 22).
inline bool IsDeterministicExhaustive(NnfManager& mgr, NnfId root,
                                      size_t num_vars) {
  TBC_CHECK_MSG(num_vars <= 22, "exhaustive determinism check limited to 22 vars");
  const std::vector<NnfId> order = mgr.TopologicalOrder(root);
  std::vector<int8_t> value(mgr.num_nodes(), 0);
  Assignment a(num_vars, false);
  const uint64_t total = 1ull << num_vars;
  for (uint64_t bits = 0; bits < total; ++bits) {
    for (size_t v = 0; v < num_vars; ++v) a[v] = (bits >> v) & 1u;
    for (NnfId n : order) {
      switch (mgr.kind(n)) {
        case NnfManager::Kind::kFalse:
          value[n] = 0;
          break;
        case NnfManager::Kind::kTrue:
          value[n] = 1;
          break;
        case NnfManager::Kind::kLiteral:
          value[n] = Eval(mgr.lit(n), a) ? 1 : 0;
          break;
        case NnfManager::Kind::kAnd: {
          int8_t v = 1;
          for (NnfId c : mgr.children(n)) v = static_cast<int8_t>(v & value[c]);
          value[n] = v;
          break;
        }
        case NnfManager::Kind::kOr: {
          int high = 0;
          for (NnfId c : mgr.children(n)) high += value[c];
          if (high > 1) return false;
          value[n] = high > 0 ? 1 : 0;
          break;
        }
      }
    }
  }
  return true;
}

/// Calls on_model for every model over variables 0..num_vars-1, in
/// ascending order of the assignment read as a binary number with variable
/// 0 lowest (num_vars <= 22).
inline void EnumerateModelsDnnf(
    NnfManager& mgr, NnfId root, size_t num_vars,
    const std::function<void(const Assignment&)>& on_model) {
  TBC_CHECK_MSG(num_vars <= 22, "model enumeration oracle limited to 22 vars");
  const std::vector<NnfId> order = mgr.TopologicalOrder(root);
  std::vector<int8_t> value(mgr.num_nodes(), 0);
  Assignment a(num_vars, false);
  const uint64_t total = 1ull << num_vars;
  for (uint64_t bits = 0; bits < total; ++bits) {
    for (size_t v = 0; v < num_vars; ++v) a[v] = (bits >> v) & 1u;
    for (NnfId n : order) {
      switch (mgr.kind(n)) {
        case NnfManager::Kind::kFalse:
          value[n] = 0;
          break;
        case NnfManager::Kind::kTrue:
          value[n] = 1;
          break;
        case NnfManager::Kind::kLiteral:
          value[n] = Eval(mgr.lit(n), a) ? 1 : 0;
          break;
        case NnfManager::Kind::kAnd: {
          int8_t v = 1;
          for (NnfId c : mgr.children(n)) v = static_cast<int8_t>(v & value[c]);
          value[n] = v;
          break;
        }
        case NnfManager::Kind::kOr: {
          int8_t v = 0;
          for (NnfId c : mgr.children(n)) v = static_cast<int8_t>(v | value[c]);
          value[n] = v;
          break;
        }
      }
    }
    if (value[root] == 1) on_model(a);
  }
}

/// The rule ids ("dnnf.decomposable", "nnf.smooth", "nnf.decision", ...)
/// of every diagnostic AnalyzeNnf reports on `root` under `dialect`, at
/// any severity; empty when the circuit has every property the dialect
/// checks. No diagnostic is dropped.
inline std::set<std::string> RuleIds(NnfManager& mgr, NnfId root,
                                     NnfDialect dialect) {
  NnfAnalysisOptions options;
  options.dialect = dialect;
  DiagnosticReport report;
  report.set_max_diagnostics(SIZE_MAX);
  AnalyzeNnf(mgr, root, options, report);
  std::set<std::string> ids;
  for (const Diagnostic& d : report.diagnostics()) ids.insert(d.rule_id);
  return ids;
}

}  // namespace tbc::nnf_oracle

#endif  // TBC_TESTS_NNF_ORACLE_H_
