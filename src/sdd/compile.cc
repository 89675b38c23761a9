#include "sdd/compile.h"

#include <algorithm>

#ifdef TBC_VALIDATE
#include "analysis/validate.h"
#endif
#ifdef TBC_CERTIFY
#include "certify/emit.h"
#endif

namespace tbc {

SddId CompileClause(SddManager& mgr, const Clause& clause) {
  SddId acc = mgr.False();
  for (Lit l : clause) acc = mgr.Disjoin(acc, mgr.LiteralNode(l));
  return acc;
}

SddId CompileCube(SddManager& mgr, const std::vector<Lit>& cube) {
  SddId acc = mgr.True();
  for (Lit l : cube) acc = mgr.Conjoin(acc, mgr.LiteralNode(l));
  return acc;
}

SddId CompileCnf(SddManager& mgr, const Cnf& cnf) {
  const Vtree& vt = mgr.vtree();
  std::vector<size_t> idx(cnf.num_clauses());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  auto max_pos = [&](size_t i) {
    uint32_t m = 0;
    for (Lit l : cnf.clause(i)) {
      m = std::max(m, vt.position(vt.LeafOfVar(l.var())));
    }
    return m;
  };
  std::sort(idx.begin(), idx.end(),
            [&](size_t a, size_t b) { return max_pos(a) < max_pos(b); });
  SddId acc = mgr.True();
  for (size_t i : idx) {
    acc = mgr.Conjoin(acc, CompileClause(mgr, cnf.clause(i)));
    if (acc == mgr.False()) break;
    // Between clause conjoins is a safe point (no apply in flight): let the
    // manager's size-triggered policy squeeze the partial SDD in place.
    acc = mgr.MaybeAutoMinimize(acc);
  }
#ifdef TBC_VALIDATE
  if (mgr.guard() == nullptr) ValidateSddOrDie(mgr, acc, "CompileCnf");
#endif
#ifdef TBC_CERTIFY
  // SDD certificates are semantic (no derivation trace): the apply engine
  // has no clausal replay, so the checker re-derives both entailment
  // directions over the NNF export. Skipped under a guard — the bounded
  // wrapper certifies after the guard is detached.
  if (mgr.guard() == nullptr) CertifySddOrDie(cnf, mgr, acc, "CompileCnf");
#endif
  return acc;
}

Result<SddId> CompileCnfBounded(SddManager& mgr, const Cnf& cnf, Guard& guard) {
  if (mgr.interrupted()) {
    return Status::Error(StatusCode::kInternal,
                         "SddManager is interrupted; call ClearInterrupt()");
  }
  for (const Clause& c : cnf.clauses()) {
    for (Lit l : c) {
      if (l.var() >= mgr.num_vars()) {
        return Status::InvalidInput("CNF variable " + std::to_string(l.var() + 1) +
                                    " outside the manager's vtree");
      }
    }
  }
  TBC_RETURN_IF_ERROR(guard.Check());
  mgr.set_guard(&guard);
  const SddId root = CompileCnf(mgr, cnf);
  mgr.set_guard(nullptr);
  if (mgr.interrupted()) {
    Status s = mgr.interrupt_status();
    mgr.ClearInterrupt();
    return s;
  }
#ifdef TBC_VALIDATE
  ValidateSddOrDie(mgr, root, "CompileCnfBounded");
#endif
#ifdef TBC_CERTIFY
  CertifySddOrDie(cnf, mgr, root, "CompileCnfBounded");
#endif
  return root;
}

SddId CompileFormula(SddManager& mgr, const FormulaStore& store, FormulaId f) {
  return store.Fold<SddId>(
      f,
      [&](FormulaId g) {
        if (store.kind(g) == FormulaStore::Kind::kVar) {
          return mgr.LiteralNode(Pos(store.var(g)));
        }
        return g == store.True() ? mgr.True() : mgr.False();
      },
      [&](SddId g) { return mgr.Negate(g); },
      [&](FormulaStore::Kind kind, SddId acc, SddId g) {
        return kind == FormulaStore::Kind::kAnd ? mgr.Conjoin(acc, g)
                                                : mgr.Disjoin(acc, g);
      });
}

}  // namespace tbc
