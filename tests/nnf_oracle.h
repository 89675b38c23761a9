// Test-only checks of NNF circuits. Two exhaustive oracles, which
// evaluate the circuit under every assignment and so share no code with
// the library's linear-time queries; RuleIds, the property checks of
// the static analyzer (analysis/nnf_analyzer.h) as a set of rule ids; and
// Smooth, the explicit smoothing transform that the gap-factor kernels
// (nnf/queries.h) make unnecessary in the library itself.
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

/// Returns an equivalent smooth circuit (paper §3): each or-gate input is
/// conjoined with (x ∨ ¬x) gates for its missing variables. If
/// `num_vars > 0`, the root is additionally smoothed over variables
/// 0..num_vars-1. Preserves decomposability and determinism.
inline NnfId Smooth(NnfManager& mgr, NnfId root, size_t num_vars = 0) {
  // Conjunction of (x ∨ ¬x) for every variable in `missing` with `node`.
  auto attach_missing = [&mgr](NnfId node, const std::vector<Var>& missing) {
    if (missing.empty()) return node;
    std::vector<NnfId> parts = {node};
    for (Var v : missing) {
      parts.push_back(mgr.Or(mgr.Literal(Pos(v)), mgr.Literal(Neg(v))));
    }
    return mgr.And(std::move(parts));
  };
  mgr.VarSet(root);
  // Dense memo indexed by original node id; And/Or below may append nodes,
  // but only pre-existing ids are ever looked up.
  std::vector<NnfId> memo(mgr.num_nodes(), kInvalidNnf);
  for (NnfId n : mgr.TopologicalOrder(root)) {
    switch (mgr.kind(n)) {
      case NnfManager::Kind::kFalse:
      case NnfManager::Kind::kTrue:
      case NnfManager::Kind::kLiteral:
        memo[n] = n;
        break;
      case NnfManager::Kind::kAnd: {
        std::vector<NnfId> kids;
        const std::vector<NnfId> original = mgr.children(n).ToVector();
        for (NnfId c : original) kids.push_back(memo[c]);
        memo[n] = mgr.And(std::move(kids));
        break;
      }
      case NnfManager::Kind::kOr: {
        // Copies: And/Or below may reallocate what the views point into.
        const std::vector<uint64_t> full = mgr.VarSet(n).ToVector();
        std::vector<NnfId> kids;
        const std::vector<NnfId> original = mgr.children(n).ToVector();
        for (NnfId c : original) {
          std::vector<Var> missing;
          AppendMissingVars(full, mgr.VarSet(c), missing);
          kids.push_back(attach_missing(memo[c], missing));
        }
        memo[n] = mgr.Or(std::move(kids));
        break;
      }
    }
  }
  NnfId result = memo[root];
  if (num_vars > 0) {
    std::vector<uint64_t> all((num_vars + 63) / 64, 0);
    for (size_t v = 0; v < num_vars; ++v) all[v / 64] |= 1ull << (v % 64);
    std::vector<Var> missing;
    AppendMissingVars(all, mgr.VarSet(root), missing);
    result = attach_missing(result, missing);
  }
  return result;
}

}  // namespace tbc::nnf_oracle

#endif  // TBC_TESTS_NNF_ORACLE_H_
