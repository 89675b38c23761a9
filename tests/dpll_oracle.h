// The copy-based exhaustive DPLL that the trail-based driver in
// compiler/subproblem.h replaced, kept as a test oracle. Every subproblem
// is a fresh vector of reduced clauses, unit propagation runs repeated
// full passes, and the component cache is keyed by the clause contents
// (each clause sorted, the list sorted, duplicates dropped). It shares no
// code with the library's search. Test code only; instances stay small.

#ifndef TBC_TESTS_DPLL_ORACLE_H_
#define TBC_TESTS_DPLL_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "base/bigint.h"
#include "compiler/ddnnf_compiler.h"
#include "logic/cnf.h"
#include "logic/lit.h"

namespace tbc::dpll_oracle {

using ClauseList = std::vector<Clause>;

enum class BcpOutcome { kOk, kConflict };

/// `clauses` conditioned on `l`: clauses containing l dropped, ~l deleted.
inline ClauseList Condition(const ClauseList& clauses, Lit l) {
  ClauseList out;
  for (const Clause& c : clauses) {
    if (std::find(c.begin(), c.end(), l) != c.end()) continue;
    Clause kept;
    for (const Lit x : c) {
      if (x != ~l) kept.push_back(x);
    }
    out.push_back(std::move(kept));
  }
  return out;
}

/// Exhaustive unit propagation by full passes: every pass conditions the
/// clauses on the first unit it finds, until a pass finds none. Consumes
/// unit clauses into `implied` and leaves the reduced rest in `clauses`.
inline BcpOutcome Propagate(ClauseList* clauses, std::vector<Lit>* implied) {
  implied->clear();
  for (;;) {
    const auto unit = std::find_if(
        clauses->begin(), clauses->end(),
        [](const Clause& c) { return c.size() <= 1; });
    if (unit == clauses->end()) return BcpOutcome::kOk;
    if (unit->empty()) return BcpOutcome::kConflict;
    const Lit l = unit->front();
    implied->push_back(l);
    *clauses = Condition(*clauses, l);
  }
}

/// A subproblem's model count and weighted model count over the
/// variables it holds.
struct Counts {
  BigUint models;
  double wmc;
};

/// The copy-based search, with the compiler's two switches.
class CopyDpll {
 public:
  CopyDpll(DdnnfOptions options, const WeightMap& weights)
      : options_(options), weights_(weights) {}

  /// Counts over all of `cnf`'s variables.
  Counts Run(const Cnf& cnf) {
    std::vector<Var> vars(cnf.num_vars());
    std::iota(vars.begin(), vars.end(), Var{0});
    return Eval(cnf.clauses(), vars);
  }

 private:
  // `clauses` over the sorted variable set `vars`: propagate, weigh the
  // implied literals and the variables left in no clause, then multiply
  // in each component.
  Counts Eval(ClauseList clauses, const std::vector<Var>& vars) {
    std::vector<Lit> implied;
    if (Propagate(&clauses, &implied) == BcpOutcome::kConflict) {
      return {BigUint(0), 0.0};
    }
    Counts result{BigUint(1), 1.0};
    std::vector<bool> held(weights_.num_vars(), false);
    for (const Lit l : implied) {
      result.wmc *= weights_[l];
      held[l.var()] = true;
    }
    for (const Clause& c : clauses) {
      for (const Lit l : c) held[l.var()] = true;
    }
    for (const Var v : vars) {
      if (held[v]) continue;
      result.models *= BigUint(2);
      result.wmc *= weights_[Pos(v)] + weights_[Neg(v)];
    }
    for (const ClauseList& group : Groups(clauses)) {
      const Counts sub = Decide(group);
      result.models *= sub.models;
      result.wmc *= sub.wmc;
    }
    return result;
  }

  // The variable-connected groups of `clauses` (one group of them all
  // without decomposition).
  std::vector<ClauseList> Groups(const ClauseList& clauses) const {
    if (clauses.empty()) return {};
    if (!options_.use_components) return {clauses};
    std::vector<Var> parent(weights_.num_vars());
    std::iota(parent.begin(), parent.end(), Var{0});
    const auto find = [&parent](Var v) {
      while (parent[v] != v) v = parent[v];
      return v;
    };
    for (const Clause& c : clauses) {
      for (const Lit l : c) parent[find(l.var())] = find(c[0].var());
    }
    std::map<Var, ClauseList> groups;
    for (const Clause& c : clauses) groups[find(c[0].var())].push_back(c);
    std::vector<ClauseList> out;
    for (auto& [root, group] : groups) out.push_back(std::move(group));
    return out;
  }

  // One component: a cache hit, or a decision on its most frequent
  // variable.
  Counts Decide(ClauseList component) {
    for (Clause& c : component) std::sort(c.begin(), c.end());
    std::sort(component.begin(), component.end());
    component.erase(std::unique(component.begin(), component.end()),
                    component.end());
    if (options_.use_cache) {
      const auto hit = cache_.find(component);
      if (hit != cache_.end()) return hit->second;
    }
    std::map<Var, size_t> count;
    for (const Clause& c : component) {
      for (const Lit l : c) ++count[l.var()];
    }
    Var v = kInvalidVar;
    std::vector<Var> vars;
    for (const auto& [var, n] : count) {
      vars.push_back(var);
      if (v == kInvalidVar || n > count[v]) v = var;
    }
    vars.erase(std::find(vars.begin(), vars.end(), v));
    const Counts hi = Eval(Condition(component, Pos(v)), vars);
    const Counts lo = Eval(Condition(component, Neg(v)), vars);
    Counts result{hi.models, weights_[Pos(v)] * hi.wmc +
                                 weights_[Neg(v)] * lo.wmc};
    result.models += lo.models;
    if (options_.use_cache) cache_.emplace(std::move(component), result);
    return result;
  }

  const DdnnfOptions options_;
  const WeightMap& weights_;
  std::map<ClauseList, Counts> cache_;
};

}  // namespace tbc::dpll_oracle

#endif  // TBC_TESTS_DPLL_ORACLE_H_
