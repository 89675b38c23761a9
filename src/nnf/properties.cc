#include "nnf/properties.h"

namespace tbc {

namespace {

// Conjunction of (x ∨ ¬x) for every variable in `missing` with `node`.
NnfId AttachMissing(NnfManager& mgr, NnfId node, const std::vector<Var>& missing) {
  if (missing.empty()) return node;
  std::vector<NnfId> parts = {node};
  for (Var v : missing) {
    parts.push_back(mgr.Or(mgr.Literal(Pos(v)), mgr.Literal(Neg(v))));
  }
  return mgr.And(std::move(parts));
}

}  // namespace

NnfId Smooth(NnfManager& mgr, NnfId root, size_t num_vars) {
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
          kids.push_back(AttachMissing(mgr, memo[c], missing));
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
    result = AttachMissing(mgr, result, missing);
  }
  return result;
}

}  // namespace tbc
