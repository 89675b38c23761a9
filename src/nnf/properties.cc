#include "nnf/properties.h"

#include "base/check.h"

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

bool IsDecomposable(NnfManager& mgr, NnfId root) {
  mgr.VarSet(root);  // populate caches bottom-up
  for (NnfId n : mgr.TopologicalOrder(root)) {
    if (mgr.kind(n) != NnfManager::Kind::kAnd) continue;
    const auto& kids = mgr.children(n);
    // Accumulate union; any overlap along the way violates decomposability.
    std::vector<uint64_t> seen(mgr.VarSet(n).size(), 0);
    for (NnfId c : kids) {
      const Span<const uint64_t> cs = mgr.VarSet(c);
      for (size_t w = 0; w < cs.size(); ++w) {
        if ((seen[w] & cs[w]) != 0) return false;
        seen[w] |= cs[w];
      }
    }
  }
  return true;
}

bool IsSmooth(NnfManager& mgr, NnfId root) {
  mgr.VarSet(root);
  for (NnfId n : mgr.TopologicalOrder(root)) {
    if (mgr.kind(n) != NnfManager::Kind::kOr) continue;
    const auto& kids = mgr.children(n);
    for (size_t i = 1; i < kids.size(); ++i) {
      if (mgr.VarSet(kids[i]) != mgr.VarSet(kids[0])) return false;
    }
  }
  return true;
}

bool IsDeterministicExhaustive(NnfManager& mgr, NnfId root, size_t num_vars) {
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

bool IsDecision(NnfManager& mgr, NnfId root) {
  for (NnfId n : mgr.TopologicalOrder(root)) {
    if (mgr.kind(n) != NnfManager::Kind::kOr) continue;
    const auto& kids = mgr.children(n);
    if (kids.size() > 2) return false;
    // Each input must be a literal or an and-gate containing a literal of a
    // common variable, positive in one input and negative in the other.
    auto decision_lit = [&](NnfId c) -> Lit {
      if (mgr.kind(c) == NnfManager::Kind::kLiteral) return mgr.lit(c);
      if (mgr.kind(c) == NnfManager::Kind::kAnd) {
        for (NnfId g : mgr.children(c)) {
          if (mgr.kind(g) == NnfManager::Kind::kLiteral) return mgr.lit(g);
        }
      }
      return Lit();
    };
    if (kids.size() == 1) continue;
    Lit l0 = decision_lit(kids[0]);
    Lit l1 = decision_lit(kids[1]);
    bool ok = false;
    if (l0.valid() && l1.valid()) {
      // Some variable must appear as a literal in both, with opposite signs.
      // (decision_lit returns the first literal; check all pairs instead.)
      std::vector<Lit> lits0, lits1;
      auto collect = [&](NnfId c, std::vector<Lit>& out) {
        if (mgr.kind(c) == NnfManager::Kind::kLiteral) out.push_back(mgr.lit(c));
        if (mgr.kind(c) == NnfManager::Kind::kAnd) {
          for (NnfId g : mgr.children(c)) {
            if (mgr.kind(g) == NnfManager::Kind::kLiteral) out.push_back(mgr.lit(g));
          }
        }
      };
      collect(kids[0], lits0);
      collect(kids[1], lits1);
      for (Lit a : lits0) {
        for (Lit b : lits1) {
          if (a == ~b) ok = true;
        }
      }
    }
    if (!ok) return false;
  }
  return true;
}

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
