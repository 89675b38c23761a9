#include "xai/explain.h"

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_map>

#include "base/check.h"

namespace tbc {

namespace {

// f restricted by every literal of the term.
ObddId RestrictTerm(ObddManager& mgr, ObddId f, const Term& term) {
  for (Lit l : term) f = mgr.Restrict(f, l.var(), l.positive());
  return f;
}

// True iff the term implies f.
bool TermImplies(ObddManager& mgr, ObddId f, const Term& term) {
  return RestrictTerm(mgr, f, term) == mgr.True();
}

Term SortedInsert(Term term, Lit l) {
  term.push_back(l);
  std::sort(term.begin(), term.end(),
            [](Lit a, Lit b) { return a.var() < b.var(); });
  return term;
}

}  // namespace

std::vector<Term> PrimeImplicants(ObddManager& mgr, ObddId f) {
  std::unordered_map<ObddId, std::vector<Term>> memo;
  std::function<const std::vector<Term>&(ObddId)> rec =
      [&](ObddId g) -> const std::vector<Term>& {
    auto it = memo.find(g);
    if (it != memo.end()) return it->second;
    std::vector<Term> result;
    if (g == mgr.True()) {
      result.push_back({});
    } else if (g != mgr.False()) {
      const Var v = mgr.var(g);
      const ObddId f0 = mgr.lo(g);
      const ObddId f1 = mgr.hi(g);
      const ObddId q = mgr.And(f0, f1);
      result = rec(q);
      for (const Term& p : rec(f1)) {
        if (!TermImplies(mgr, q, p)) result.push_back(SortedInsert(p, Pos(v)));
      }
      for (const Term& p : rec(f0)) {
        if (!TermImplies(mgr, q, p)) result.push_back(SortedInsert(p, Neg(v)));
      }
    }
    return memo.emplace(g, std::move(result)).first->second;
  };
  return rec(f);
}

std::vector<Term> PrimeImplicantsQmc(const BooleanClassifier& classifier) {
  const size_t n = classifier.num_features;
  TBC_CHECK_MSG(n <= 14, "Quine-McCluskey oracle limited to 14 features");
  // Implicant = (mask of fixed vars, their values). Start from minterms.
  using Imp = std::pair<uint32_t, uint32_t>;  // (mask, values & mask)
  std::set<Imp> current;
  Assignment x(n);
  for (uint32_t bits = 0; bits < (1u << n); ++bits) {
    for (size_t v = 0; v < n; ++v) x[v] = (bits >> v) & 1;
    if (classifier.classify(x)) current.insert({(1u << n) - 1, bits});
  }
  std::vector<Term> primes;
  while (!current.empty()) {
    std::set<Imp> next;
    std::set<Imp> merged;
    std::vector<Imp> items(current.begin(), current.end());
    for (size_t i = 0; i < items.size(); ++i) {
      for (size_t j = i + 1; j < items.size(); ++j) {
        if (items[i].first != items[j].first) continue;
        const uint32_t diff = items[i].second ^ items[j].second;
        if (__builtin_popcount(diff) != 1) continue;
        next.insert({items[i].first & ~diff, items[i].second & ~diff});
        merged.insert(items[i]);
        merged.insert(items[j]);
      }
    }
    for (const Imp& imp : items) {
      if (merged.find(imp) == merged.end()) {
        Term t;
        for (size_t v = 0; v < n; ++v) {
          if (imp.first & (1u << v)) {
            t.push_back(Lit(static_cast<Var>(v), (imp.second >> v) & 1));
          }
        }
        primes.push_back(t);
      }
    }
    current = std::move(next);
  }
  std::sort(primes.begin(), primes.end(), [](const Term& a, const Term& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return a[i] < b[i];
    }
    return false;
  });
  primes.erase(std::unique(primes.begin(), primes.end()), primes.end());
  return primes;
}

std::vector<Term> SufficientReasons(ObddManager& mgr, ObddId f,
                                    const Assignment& x) {
  const bool decision = mgr.Evaluate(f, x);
  const ObddId target = decision ? f : mgr.Not(f);
  std::vector<Term> reasons;
  for (const Term& p : PrimeImplicants(mgr, target)) {
    bool compatible = true;
    for (Lit l : p) compatible &= Eval(l, x);
    if (compatible) reasons.push_back(p);
  }
  return reasons;
}

Term AnySufficientReason(ObddManager& mgr, ObddId f, const Assignment& x) {
  const bool decision = mgr.Evaluate(f, x);
  const ObddId target = decision ? f : mgr.Not(f);
  // Start from the full instance term and drop literals greedily.
  Term term;
  for (Var v = 0; v < mgr.num_vars(); ++v) term.push_back(Lit(v, x[v]));
  for (size_t i = 0; i < term.size();) {
    Term without = term;
    without.erase(without.begin() + static_cast<ptrdiff_t>(i));
    if (TermImplies(mgr, target, without)) {
      term = std::move(without);
    } else {
      ++i;
    }
  }
  return term;
}

NnfId ReasonCircuit(ObddManager& mgr, ObddId f, const Assignment& x,
                    NnfManager& nnf) {
  const bool decision = mgr.Evaluate(f, x);
  const ObddId target = decision ? f : mgr.Not(f);
  // Consensus transform [Darwiche & Hirth 2020]: at a decision node on X
  // with instance literal ℓ and consistent child c (other child o),
  //   R(node) = (ℓ ∧ R(c)) ∨ (R(c) ∧ R(o)).
  std::vector<NnfId> reason(mgr.num_nodes());
  reason[mgr.False()] = nnf.False();
  reason[mgr.True()] = nnf.True();
  for (const ObddId g : mgr.ReachableAscending(target)) {
    if (mgr.IsTerminal(g)) continue;
    const Var v = mgr.var(g);
    const NnfId consistent = reason[x[v] ? mgr.hi(g) : mgr.lo(g)];
    const NnfId other = reason[x[v] ? mgr.lo(g) : mgr.hi(g)];
    const NnfId lit = nnf.Literal(Lit(v, x[v]));
    reason[g] = nnf.Or(nnf.And(lit, consistent), nnf.And(consistent, other));
  }
  return reason[target];
}

bool ReasonHoldsWithout(NnfManager& nnf, NnfId reason, const Assignment& x,
                        const std::vector<Var>& excluded) {
  // The reason circuit mentions only literals consistent with x; withdraw
  // a characteristic by flipping that variable in the evaluation point.
  Assignment point = x;
  for (Var v : excluded) point[v] = !point[v];
  return nnf.Evaluate(reason, point);
}

Term ApproximateReason(const BooleanClassifier& classifier, const Assignment& x,
                       size_t samples, Rng& rng) {
  const bool decision = classifier.classify(x);
  const size_t n = classifier.num_features;
  // "Term holds" test by sampling: all sampled completions of the kept
  // characteristics must reproduce the decision.
  auto seems_sufficient = [&](const Term& term) {
    std::vector<int8_t> fixed(n, 0);
    for (Lit l : term) fixed[l.var()] = 1;
    Assignment y = x;
    for (size_t s = 0; s < samples; ++s) {
      for (size_t v = 0; v < n; ++v) {
        if (!fixed[v]) y[v] = rng.Flip(0.5);
      }
      if (classifier.classify(y) != decision) return false;
    }
    return true;
  };
  Term term;
  for (Var v = 0; v < n; ++v) term.push_back(Lit(v, x[v]));
  for (size_t i = 0; i < term.size();) {
    Term without = term;
    without.erase(without.begin() + static_cast<ptrdiff_t>(i));
    if (seems_sufficient(without)) {
      term = std::move(without);
    } else {
      ++i;
    }
  }
  return term;
}

ApproximationQuality ClassifyApproximation(const std::vector<Term>& exact_reasons,
                                           const Term& approximation) {
  auto contains = [](const Term& big, const Term& small) {
    for (Lit l : small) {
      if (std::find(big.begin(), big.end(), l) == big.end()) return false;
    }
    return true;
  };
  for (const Term& exact : exact_reasons) {
    if (exact.size() == approximation.size() && contains(exact, approximation)) {
      return ApproximationQuality::kExact;
    }
  }
  for (const Term& exact : exact_reasons) {
    if (contains(exact, approximation)) return ApproximationQuality::kOptimistic;
  }
  for (const Term& exact : exact_reasons) {
    if (contains(approximation, exact)) return ApproximationQuality::kPessimistic;
  }
  return ApproximationQuality::kIncomparable;
}

bool IsDecisionBiased(ObddManager& mgr, ObddId f, const Assignment& x,
                      const std::vector<Var>& protected_vars) {
  NnfManager nnf;
  const NnfId reason = ReasonCircuit(mgr, f, x, nnf);
  // Biased iff no sufficient reason avoids the protected features, i.e.
  // the monotone reason circuit fails once protected characteristics are
  // withdrawn.
  return !ReasonHoldsWithout(nnf, reason, x, protected_vars);
}

bool IsClassifierBiased(ObddManager& mgr, ObddId f,
                        const std::vector<Var>& protected_vars) {
  for (Var v : protected_vars) {
    if (mgr.Restrict(f, v, false) != mgr.Restrict(f, v, true)) return true;
  }
  return false;
}

}  // namespace tbc
