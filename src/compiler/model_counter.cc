#include "compiler/model_counter.h"

#include <vector>

#include "base/check.h"
#include "base/logspace.h"
#include "base/observability.h"
#include "base/scratch.h"
#include "compiler/subproblem.h"

namespace tbc {

namespace {

using compiler_internal::AllOf;
using compiler_internal::BcpOutcome;
using compiler_internal::CacheKeyInto;
using compiler_internal::Canonicalize;
using compiler_internal::ClauseRange;
using compiler_internal::ClauseSet;
using compiler_internal::ComponentCache;
using compiler_internal::ComponentOf;
using compiler_internal::ConditionClauses;
using compiler_internal::CountVars;
using compiler_internal::FrameStack;
using compiler_internal::PickBranchVar;
using compiler_internal::Propagate;
using compiler_internal::SplitComponents;

// Per-depth state of both runs: each canonicalizes its subproblem into
// `work` before propagating it, and WmcRun keeps the free variables of the
// branch it is recursing into in `free_vars`.
struct CounterExtra {
  ClauseSet work;
  std::vector<Var> free_vars;
};

// Exact counting: Count(clauses) is the model count over exactly the
// variables appearing in `clauses`. Free variables that drop out along the
// way are re-multiplied by the caller via 2^gap.
class CountRun {
 public:
  CountRun(ModelCounter::Stats& stats, Guard& guard)
      : stats_(stats), guard_(guard) {}

  Result<BigUint> CountClauses(const ClauseSet& input, size_t depth) {
    auto& frame = frames_.at(depth);
    ClauseSet& clauses = frame.extra.work;
    Canonicalize(AllOf(input), &frame.order, &clauses);
    const size_t vars_before = CountVars(clauses);
    if (Propagate(&clauses, &frame.implied) == BcpOutcome::kConflict) {
      return BigUint(0);
    }
    // Variables fixed by propagation contribute factor 1; variables that
    // vanished entirely (satisfied clauses) are free.
    const size_t vars_after = CountVars(clauses);
    const unsigned freed = static_cast<unsigned>(
        vars_before - frame.implied.size() - vars_after);
    BigUint result = BigUint::PowerOfTwo(freed);
    const ClauseSet& groups =
        SplitComponents(clauses, &frame.split, &frame.comp_ends);
    for (size_t k = 0; k < frame.comp_ends.size(); ++k) {
      TBC_ASSIGN_OR_RETURN(
          const BigUint sub,
          CountComponent(ComponentOf(groups, frame.comp_ends, k), depth));
      result *= sub;
    }
    return result;
  }

 private:
  Result<BigUint> CountComponent(ClauseRange component, size_t depth) {
    auto& frame = frames_.at(depth);
    ClauseSet& clauses = frame.canonical;
    Canonicalize(component, &frame.order, &clauses);
    const uint64_t fingerprint = CacheKeyInto(clauses, &frame.key);
    if (const BigUint* hit = cache_.Find(frame.key, fingerprint)) {
      ++stats_.cache_hits;
      TBC_COUNT("counter.cache_hits");
      return *hit;
    }
    TBC_COUNT("counter.cache_misses");
    ++stats_.decisions;
    TBC_COUNT("counter.decisions");
    // Each decision adds one cache entry: charge it as a node so memory
    // budgets bound the cache, and the decision so search budgets bound
    // the exhaustive DPLL itself.
    TBC_RETURN_IF_ERROR(guard_.ChargeDecision());
    TBC_RETURN_IF_ERROR(guard_.ChargeNodes(1));
    const Var v = PickBranchVar(clauses);
    TBC_DCHECK(v != kInvalidVar);
    const size_t nv = CountVars(clauses);
    BigUint total(0);
    for (bool sign : {false, true}) {
      ConditionClauses(clauses, Lit(v, sign), &frame.branch);
      const size_t sub_vars = CountVars(frame.branch);
      TBC_ASSIGN_OR_RETURN(BigUint c, CountClauses(frame.branch, depth + 1));
      // The branch fixes v; variables of the component absent from the
      // subproblem are free.
      c *= BigUint::PowerOfTwo(static_cast<unsigned>(nv - 1 - sub_vars));
      total += c;
    }
    cache_.Insert(frame.key, fingerprint, total);
    return total;
  }

  ModelCounter::Stats& stats_;
  Guard& guard_;
  FrameStack<CounterExtra> frames_;
  ComponentCache<BigUint> cache_;
};

// Weighted variant; identical structure with per-literal weights. All
// accumulation — including the component cache — is in ScaledDouble
// (base/logspace.h): a chain of a few thousand 1e-3 weights produces
// intermediates around 1e-6000, which plain double flushes to 0.0 and the
// cache would then serve as a *wrong* 0.0 to every isomorphic subproblem.
// The explicit exponent makes those intermediates exact; the public API
// converts back to double only at the very end.
//
// Free-variable factors are multiplied in first-occurrence order over the
// canonical clauses, which fixes the rounding of every result.
class WmcRun {
 public:
  WmcRun(const WeightMap& weights, ModelCounter::Stats& stats, Guard& guard)
      : weights_(weights), stats_(stats), guard_(guard) {}

  Result<ScaledDouble> WmcClauses(const ClauseSet& input, size_t depth) {
    auto& frame = frames_.at(depth);
    ClauseSet& clauses = frame.extra.work;
    Canonicalize(AllOf(input), &frame.order, &clauses);
    static thread_local EpochMap seen_before;  // var -> still free?
    seen_before.Clear();
    for (const Lit l : clauses.lits) seen_before.Set(l.var(), 1);
    if (Propagate(&clauses, &frame.implied) == BcpOutcome::kConflict) {
      return ScaledDouble::Zero();
    }
    ScaledDouble result = ScaledDouble::One();
    for (Lit l : frame.implied) {
      result *= ScaledDouble::FromDouble(weights_[l]);
      seen_before.Set(l.var(), 0);
    }
    for (const Lit l : clauses.lits) seen_before.Set(l.var(), 0);
    // Variables that vanished are free: factor (W(x)+W(¬x)).
    for (const Var v : seen_before.touched()) {
      if (seen_before.Get(v) == 0) continue;
      result *= ScaledDouble::FromDouble(weights_[Pos(v)] + weights_[Neg(v)]);
    }
    // Long implied-literal chains are where naive products die first.
    NoteIfRescued(result);
    const ClauseSet& groups =
        SplitComponents(clauses, &frame.split, &frame.comp_ends);
    for (size_t k = 0; k < frame.comp_ends.size(); ++k) {
      TBC_ASSIGN_OR_RETURN(
          const ScaledDouble sub,
          WmcComponent(ComponentOf(groups, frame.comp_ends, k), depth));
      result *= sub;
    }
    NoteIfRescued(result);
    return result;
  }

 private:
  /// A nonzero value outside the normal double range is exactly what the
  /// pre-log-space accumulator destroyed; count each sighting.
  void NoteIfRescued(const ScaledDouble& v) {
    if (!v.IsZero() && !v.FitsDouble()) {
      ++stats_.underflow_rescues;
      TBC_COUNT("counter.wmc.rescues");
    }
  }

  Result<ScaledDouble> WmcComponent(ClauseRange component, size_t depth) {
    auto& frame = frames_.at(depth);
    ClauseSet& clauses = frame.canonical;
    Canonicalize(component, &frame.order, &clauses);
    const uint64_t fingerprint = CacheKeyInto(clauses, &frame.key);
    if (const ScaledDouble* hit = cache_.Find(frame.key, fingerprint)) {
      ++stats_.cache_hits;
      TBC_COUNT("counter.cache_hits");
      return *hit;
    }
    TBC_COUNT("counter.cache_misses");
    ++stats_.decisions;
    TBC_COUNT("counter.decisions");
    TBC_RETURN_IF_ERROR(guard_.ChargeDecision());
    TBC_RETURN_IF_ERROR(guard_.ChargeNodes(1));
    const Var v = PickBranchVar(clauses);
    TBC_DCHECK(v != kInvalidVar);
    ScaledDouble total = ScaledDouble::Zero();
    std::vector<Var>& free_vars = frame.extra.free_vars;
    for (bool sign : {false, true}) {
      const Lit branch(v, sign);
      ConditionClauses(clauses, branch, &frame.branch);
      // Component variables absent from the subproblem are free; collect
      // them before the recursion reuses the scratch map.
      static thread_local EpochMap in_sub;
      in_sub.Clear();
      for (const Lit l : frame.branch.lits) in_sub.Set(l.var(), 1);
      in_sub.Set(v, 1);
      free_vars.clear();
      for (const Lit l : clauses.lits) {
        if (!in_sub.Has(l.var())) {
          in_sub.Set(l.var(), 1);
          free_vars.push_back(l.var());
        }
      }
      TBC_ASSIGN_OR_RETURN(const ScaledDouble sub_wmc,
                           WmcClauses(frame.branch, depth + 1));
      ScaledDouble w = ScaledDouble::FromDouble(weights_[branch]) * sub_wmc;
      for (const Var u : free_vars) {
        w *= ScaledDouble::FromDouble(weights_[Pos(u)] + weights_[Neg(u)]);
      }
      total += w;
    }
    NoteIfRescued(total);
    cache_.Insert(frame.key, fingerprint, total);
    return total;
  }

  const WeightMap& weights_;
  ModelCounter::Stats& stats_;
  Guard& guard_;
  FrameStack<CounterExtra> frames_;
  ComponentCache<ScaledDouble> cache_;
};

}  // namespace

BigUint ModelCounter::Count(const Cnf& cnf) {
  return CountBounded(cnf, Guard::Unlimited()).value();
}

double ModelCounter::Wmc(const Cnf& cnf, const WeightMap& weights) {
  return WmcBounded(cnf, weights, Guard::Unlimited()).value();
}

Result<BigUint> ModelCounter::CountBounded(const Cnf& cnf, Guard& guard) {
  TBC_SPAN("counter.count");
  stats_ = Stats();
  TBC_RETURN_IF_ERROR(guard.Check());
  ClauseSet clauses;
  compiler_internal::LoadCnf(cnf, &clauses);
  const size_t mentioned = CountVars(clauses);
  CountRun run(stats_, guard);
  TBC_ASSIGN_OR_RETURN(const BigUint c, run.CountClauses(clauses, 0));
  return c * BigUint::PowerOfTwo(static_cast<unsigned>(cnf.num_vars() - mentioned));
}

Result<double> ModelCounter::WmcBounded(const Cnf& cnf, const WeightMap& weights,
                                        Guard& guard) {
  TBC_SPAN("counter.wmc");
  stats_ = Stats();
  TBC_RETURN_IF_ERROR(guard.Check());
  ClauseSet clauses;
  compiler_internal::LoadCnf(cnf, &clauses);
  std::vector<bool> mentioned(cnf.num_vars(), false);
  for (const Lit l : clauses.lits) mentioned[l.var()] = true;
  WmcRun run(weights, stats_, guard);
  TBC_ASSIGN_OR_RETURN(ScaledDouble w, run.WmcClauses(clauses, 0));
  for (Var v = 0; v < cnf.num_vars(); ++v) {
    if (!mentioned[v]) {
      w *= ScaledDouble::FromDouble(weights[Pos(v)] + weights[Neg(v)]);
    }
  }
  if (!w.IsZero() && !w.FitsDouble()) {
    // The final answer itself is not double-representable; ToDouble()
    // saturates (0.0 / inf) as the best the public double API can do.
    ++stats_.underflow_rescues;
    TBC_COUNT("counter.wmc.rescues");
  }
  return w.ToDouble();
}

}  // namespace tbc
