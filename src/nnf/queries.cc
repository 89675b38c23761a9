#include "nnf/queries.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "base/check.h"

namespace tbc {

namespace {

// Nodes per chunk claimed off the pool; also the poll period of the
// serial passes.
constexpr size_t kGrain = 64;

// Edge slot `e`'s gap variables, ascending.
Span<const Var> Gap(const GapPlan& plan, uint32_t e) {
  return Span<const Var>(plan.gap_vars.data() + plan.gap_begin[e],
                         plan.gap_begin[e + 1] - plan.gap_begin[e]);
}

// A variable free under a gate contributes W(x)+W(¬x) to a weighted count
// and its heavier literal, max(W(x), W(¬x)), to a maximum.
double FreeWeight(const WeightMap& w, Var v) { return w[Pos(v)] + w[Neg(v)]; }
double BestWeight(const WeightMap& w, Var v) {
  return std::max(w[Pos(v)], w[Neg(v)]);
}

// Product of factor(v) over a gap, multiplied in ascending variable order.
template <typename Factor>
double GapProduct(Span<const Var> gap, Factor&& factor) {
  double f = 1.0;
  for (Var v : gap) f *= factor(v);
  return f;
}

// Variables 0..num_vars-1 that the root does not mention, ascending.
std::vector<Var> OutsideRootVars(const GapPlan& plan, size_t num_vars) {
  std::vector<Var> out;
  for (size_t w = 0; 64 * w < num_vars; ++w) {
    uint64_t bits = w < plan.root_vars.size() ? ~plan.root_vars[w] : ~0ull;
    if (num_vars - 64 * w < 64) bits &= (1ull << (num_vars - 64 * w)) - 1;
    for (; bits != 0; bits &= bits - 1) {
      out.push_back(static_cast<Var>(64 * w + __builtin_ctzll(bits)));
    }
  }
  return out;
}

// The algebras of the one upward pass (Upward below). Each gives the value
// of ⊥, ⊤ and a literal, the and-gate product, and the or-gate sum, to
// which an input adds its value scaled by its edge's gap.

// Exact model counts: a gap of k free variables multiplies by 2^k.
struct CountAlgebra {
  using Value = BigUint;
  BigUint Zero() const { return BigUint(0); }
  BigUint One() const { return BigUint(1); }
  BigUint Literal(Lit) const { return BigUint(1); }
  void Times(BigUint& acc, const BigUint& x) const { acc *= x; }
  void Plus(BigUint& acc, const BigUint& x, Span<const Var> gap) const {
    // x·2^|gap| added in place: no power or product is built, and a
    // gap-free edge is a plain sum, as in WmcAlgebra.
    acc.AddShifted(x, static_cast<unsigned>(gap.size()));
  }
};

// Weighted model counts.
struct WmcAlgebra {
  using Value = double;
  const WeightMap& weights;
  double Zero() const { return 0.0; }
  double One() const { return 1.0; }
  double Literal(Lit l) const { return weights[l]; }
  void Times(double& acc, double x) const { acc *= x; }
  void Plus(double& acc, double x, Span<const Var> gap) const {
    // x·1.0 == x: a gap-free edge skips the product, bit-identically.
    if (gap.size() == 0) {
      acc += x;
    } else {
      acc += x * GapProduct(gap, [&](Var v) { return FreeWeight(weights, v); });
    }
  }
};

// Maximum weights. -1 marks an unsatisfiable input: it absorbs products
// and loses every max.
struct MpeAlgebra {
  using Value = double;
  const WeightMap& weights;
  double Zero() const { return -1.0; }
  double One() const { return 1.0; }
  double Literal(Lit l) const { return weights[l]; }
  void Times(double& acc, double x) const {
    acc = acc < 0.0 || x < 0.0 ? -1.0 : acc * x;
  }
  void Plus(double& acc, double x, Span<const Var> gap) const {
    if (x < 0.0) return;
    acc = std::max(acc, x * GapProduct(gap, [&](Var v) {
                          return BestWeight(weights, v);
                        }));
  }
};

// The one upward pass of the gap-factor kernels: slot i of `value` gets
// the value of the node at rank i of the plan's schedule. A gate combines
// its inputs' values in child order, and those all sit on earlier levels,
// so with a pool each level's nodes run over its lanes; without one the
// whole schedule is a single sweep. Either way the result is bit-identical.
// A plan with no gaps at all (the common case for compiled BN encodings)
// never reads its edge arrays. The guard is polled throughout; on a trip
// the partial values are garbage.
template <typename Algebra>
Status Upward(const NnfManager& mgr, const GapPlan& plan, const Algebra& alg,
              Guard& guard, ThreadPool* pool,
              std::vector<typename Algebra::Value>& value) {
  const LevelSchedule& s = plan.schedule;
  const bool gapless = plan.gap_vars.empty();
  value.resize(s.order.size());
  auto eval = [&](size_t i) {
    const NnfId n = s.order[i];
    switch (mgr.kind(n)) {
      case NnfManager::Kind::kFalse:
        value[i] = alg.Zero();
        break;
      case NnfManager::Kind::kTrue:
        value[i] = alg.One();
        break;
      case NnfManager::Kind::kLiteral:
        value[i] = alg.Literal(mgr.lit(n));
        break;
      case NnfManager::Kind::kAnd: {
        typename Algebra::Value prod = alg.One();
        for (NnfId c : mgr.children(n)) alg.Times(prod, value[s.rank[c]]);
        value[i] = std::move(prod);
        break;
      }
      case NnfManager::Kind::kOr: {
        typename Algebra::Value sum = alg.Zero();
        uint32_t e = gapless ? 0 : plan.edge_begin[i];
        for (NnfId c : mgr.children(n)) {
          alg.Plus(sum, value[s.rank[c]],
                   gapless ? Span<const Var>() : Gap(plan, e++));
        }
        value[i] = std::move(sum);
        break;
      }
    }
  };
  if (pool == nullptr || pool->num_threads() == 1) {
    return ForRange(nullptr, guard, 0, s.order.size(), kGrain, eval);
  }
  for (size_t l = 0; l < s.num_levels(); ++l) {
    TBC_RETURN_IF_ERROR(ForRange(pool, guard, s.level_begin[l],
                                 s.level_begin[l + 1], kGrain, eval));
  }
  return Status::Ok();
}

// The one top-down descent of MPE and sampling: from `root`, follows every
// input of an and-gate and, at the or-gate n of rank i, the input at
// position choose(n, i) among n's children. Literals on the path fix their
// variables; the chosen edges' gap variables, and then every variable the
// path never reached, take free_value(v), called in that order.
template <typename Choose, typename FreeValue>
Assignment Descend(const NnfManager& mgr, const GapPlan& plan, NnfId root,
                   size_t num_vars, Choose&& choose, FreeValue&& free_value) {
  Assignment x(num_vars, false);
  std::vector<int8_t> assigned(num_vars, 0);
  auto set = [&](Var v, bool val) {
    x[v] = val;
    assigned[v] = 1;
  };
  std::vector<NnfId> stack = {root};
  while (!stack.empty()) {
    const NnfId n = stack.back();
    stack.pop_back();
    switch (mgr.kind(n)) {
      case NnfManager::Kind::kFalse:
      case NnfManager::Kind::kTrue:
        break;
      case NnfManager::Kind::kLiteral:
        set(mgr.lit(n).var(), mgr.lit(n).positive());
        break;
      case NnfManager::Kind::kAnd:
        for (NnfId c : mgr.children(n)) stack.push_back(c);
        break;
      case NnfManager::Kind::kOr: {
        const uint32_t i = plan.schedule.rank[n];
        const size_t k = choose(n, i);
        for (Var v : Gap(plan, plan.edge_begin[i] + static_cast<uint32_t>(k))) {
          set(v, free_value(v));
        }
        stack.push_back(mgr.children(n)[k]);
        break;
      }
    }
  }
  for (Var v = 0; v < num_vars; ++v) {
    if (!assigned[v]) set(v, free_value(v));
  }
  return x;
}

// Derivative of the product F = Π_{x∈vars} FreeWeight(x) times `base`:
// adds base·Π_{y∈vars, y≠x} FreeWeight(y) to d[l] for both literals l of
// every x in vars (W(x)+W(¬x) has derivative 1 in each), handling zero
// factors as the and-gate derivative does. Returns F, multiplied in the
// order of `vars` (so for a gap it equals the upward pass's GapProduct).
double AddGapDerivative(Span<const Var> vars, const WeightMap& w, double base,
                        std::vector<double>& d) {
  size_t zeros = 0;
  double prod_nonzero = 1.0;
  for (Var y : vars) {
    const double f = FreeWeight(w, y);
    if (f == 0.0) {
      ++zeros;
    } else {
      prod_nonzero *= f;
    }
  }
  auto add = [&](Var x, double dx) {
    d[Pos(x).code()] += dx;
    d[Neg(x).code()] += dx;
  };
  if (base != 0.0 && zeros == 0) {
    for (Var x : vars) add(x, base * prod_nonzero / FreeWeight(w, x));
  } else if (base != 0.0 && zeros == 1) {
    for (Var x : vars) {
      if (FreeWeight(w, x) == 0.0) add(x, base * prod_nonzero);
    }
  }
  return zeros == 0 ? prod_nonzero : 0.0;
}

}  // namespace

bool IsSatDnnf(NnfManager& mgr, NnfId root) {
  std::vector<int8_t> sat(mgr.num_nodes(), 0);
  for (NnfId n : mgr.TopologicalOrder(root)) {
    switch (mgr.kind(n)) {
      case NnfManager::Kind::kFalse:
        sat[n] = 0;
        break;
      case NnfManager::Kind::kTrue:
      case NnfManager::Kind::kLiteral:
        sat[n] = 1;
        break;
      case NnfManager::Kind::kAnd: {
        int8_t v = 1;
        for (NnfId c : mgr.children(n)) v = static_cast<int8_t>(v & sat[c]);
        sat[n] = v;
        break;
      }
      case NnfManager::Kind::kOr: {
        int8_t v = 0;
        for (NnfId c : mgr.children(n)) v = static_cast<int8_t>(v | sat[c]);
        sat[n] = v;
        break;
      }
    }
  }
  return sat[root] == 1;
}

Result<BigUint> ModelCountBounded(NnfManager& mgr, NnfId root, size_t num_vars,
                                  Guard& guard, ThreadPool* pool) {
  TBC_RETURN_IF_ERROR(guard.Check());
  // The store is append-only, so a root's count over a fixed universe never
  // changes; repeated counts on the same root hit the manager's cache.
  if (const BigUint* hit = mgr.FindModelCount(root, num_vars)) return *hit;
  const GapPlan& plan = mgr.GapPlanCached(root);
  std::vector<BigUint> count;
  TBC_RETURN_IF_ERROR(Upward(mgr, plan, CountAlgebra{}, guard, pool, count));
  size_t root_vars = 0;
  for (uint64_t w : plan.root_vars) root_vars += __builtin_popcountll(w);
  TBC_CHECK_MSG(root_vars <= num_vars, "num_vars smaller than circuit variables");
  BigUint result = count[plan.schedule.rank[root]] *
                   BigUint::PowerOfTwo(static_cast<unsigned>(num_vars - root_vars));
  mgr.StoreModelCount(root, num_vars, result);
  return result;
}

BigUint ModelCount(NnfManager& mgr, NnfId root, size_t num_vars) {
  return std::move(
      ModelCountBounded(mgr, root, num_vars, Guard::Unlimited()).value());
}

Result<double> WmcBounded(NnfManager& mgr, NnfId root, const WeightMap& weights,
                          Guard& guard, ThreadPool* pool) {
  TBC_RETURN_IF_ERROR(guard.Check());
  const GapPlan& plan = mgr.GapPlanCached(root);
  std::vector<double> value;
  TBC_RETURN_IF_ERROR(
      Upward(mgr, plan, WmcAlgebra{weights}, guard, pool, value));
  // Variables outside the circuit contribute (W(x)+W(¬x)) each.
  double outside = 1.0;
  for (Var v : OutsideRootVars(plan, weights.num_vars())) {
    outside *= FreeWeight(weights, v);
  }
  return value[plan.schedule.rank[root]] * outside;
}

double Wmc(NnfManager& mgr, NnfId root, const WeightMap& weights) {
  return WmcBounded(mgr, root, weights, Guard::Unlimited()).value();
}

Result<std::vector<double>> MarginalWmcBounded(NnfManager& mgr, NnfId root,
                                               const WeightMap& weights,
                                               Guard& guard) {
  TBC_RETURN_IF_ERROR(guard.Check());
  const GapPlan& plan = mgr.GapPlanCached(root);
  const LevelSchedule& s = plan.schedule;
  std::vector<double> value;
  TBC_RETURN_IF_ERROR(
      Upward(mgr, plan, WmcAlgebra{weights}, guard, nullptr, value));

  // Downward pass: partial derivatives [Darwiche 2003] of the circuit's
  // polynomial, value(root)·Π_{x outside the root}(W(x)+W(¬x)). d[l] first
  // collects ∂/∂W(l): the derivatives at l's literal nodes plus the gap
  // derivatives of l's variable. Parents accumulate into shared child
  // slots, so this pass stays serial.
  std::vector<double> d(2 * weights.num_vars(), 0.0);
  std::vector<double> deriv(s.order.size(), 0.0);
  deriv[s.rank[root]] =
      AddGapDerivative(OutsideRootVars(plan, weights.num_vars()), weights,
                       value[s.rank[root]], d);
  const size_t num_nodes = s.order.size();
  const bool gapless = plan.gap_vars.empty();
  auto step = [&](size_t j) {
    const size_t i = num_nodes - 1 - j;  // parents before children
    const NnfId n = s.order[i];
    const double dn = deriv[i];
    if (dn == 0.0) return;
    switch (mgr.kind(n)) {
      case NnfManager::Kind::kFalse:
      case NnfManager::Kind::kTrue:
        break;
      case NnfManager::Kind::kLiteral:
        d[mgr.lit(n).code()] += dn;
        break;
      case NnfManager::Kind::kOr: {
        // d/dc = dn·g(e) through edge e, whose gap product g(e) also
        // passes dn·v(c) on to the gap variables.
        uint32_t e = gapless ? 0 : plan.edge_begin[i];
        for (NnfId c : mgr.children(n)) {
          const Span<const Var> gap =
              gapless ? Span<const Var>() : Gap(plan, e++);
          double g = 1.0;
          if (gap.size() != 0) {
            g = AddGapDerivative(gap, weights, dn * value[s.rank[c]], d);
          }
          deriv[s.rank[c]] += dn * g;
        }
        break;
      }
      case NnfManager::Kind::kAnd: {
        // d/dc = dn * Π_{c'≠c} v(c'); handle zero factors explicitly.
        const auto& kids = mgr.children(n);
        size_t zeros = 0;
        double prod_nonzero = 1.0;
        for (NnfId c : kids) {
          if (value[s.rank[c]] == 0.0) {
            ++zeros;
          } else {
            prod_nonzero *= value[s.rank[c]];
          }
        }
        if (zeros == 0) {
          for (NnfId c : kids) deriv[s.rank[c]] += dn * prod_nonzero / value[s.rank[c]];
        } else if (zeros == 1) {
          for (NnfId c : kids) {
            if (value[s.rank[c]] == 0.0) deriv[s.rank[c]] += dn * prod_nonzero;
          }
        }
        break;
      }
    }
  };
  TBC_RETURN_IF_ERROR(ForRange(nullptr, guard, 0, num_nodes, kGrain, step));
  // WMC(Δ ∧ l) = W(l)·∂/∂W(l): the polynomial is multilinear.
  for (uint32_t code = 0; code < d.size(); ++code) {
    d[code] *= weights[Lit::FromCode(code)];
  }
  return d;
}

std::vector<double> MarginalWmc(NnfManager& mgr, NnfId root,
                                const WeightMap& weights) {
  return std::move(
      MarginalWmcBounded(mgr, root, weights, Guard::Unlimited()).value());
}

size_t MinCardinality(NnfManager& mgr, NnfId root) {
  constexpr size_t kInf = std::numeric_limits<size_t>::max();
  std::vector<size_t> card(mgr.num_nodes(), 0);
  for (NnfId n : mgr.TopologicalOrder(root)) {
    switch (mgr.kind(n)) {
      case NnfManager::Kind::kFalse:
        card[n] = kInf;
        break;
      case NnfManager::Kind::kTrue:
        card[n] = 0;
        break;
      case NnfManager::Kind::kLiteral:
        card[n] = mgr.lit(n).positive() ? 1 : 0;
        break;
      case NnfManager::Kind::kAnd: {
        size_t sum = 0;
        for (NnfId c : mgr.children(n)) {
          if (card[c] == kInf) {
            sum = kInf;
            break;
          }
          sum += card[c];
        }
        card[n] = sum;
        break;
      }
      case NnfManager::Kind::kOr: {
        size_t best = kInf;
        // Missing variables can always be set false (cardinality 0), so no
        // gap correction is needed for minimization.
        for (NnfId c : mgr.children(n)) best = std::min(best, card[c]);
        card[n] = best;
        break;
      }
    }
  }
  return card[root];
}

Result<MpeResult> MaxWmcBounded(NnfManager& mgr, NnfId root,
                                const WeightMap& weights, size_t num_vars,
                                Guard& guard, ThreadPool* pool) {
  TBC_RETURN_IF_ERROR(guard.Check());
  const GapPlan& plan = mgr.GapPlanCached(root);
  const LevelSchedule& s = plan.schedule;
  std::vector<double> value;
  TBC_RETURN_IF_ERROR(
      Upward(mgr, plan, MpeAlgebra{weights}, guard, pool, value));
  TBC_CHECK_MSG(value[s.rank[root]] >= 0.0, "MaxWmc on unsatisfiable circuit");

  // Traceback (serial; ties break on child order, independent of threads).
  MpeResult result;
  result.assignment = Descend(
      mgr, plan, root, num_vars,
      [&](NnfId n, uint32_t i) {
        size_t best_k = 0;
        double best = -1.0;
        uint32_t e = plan.edge_begin[i];
        const Span<const NnfId> kids = mgr.children(n);
        for (size_t k = 0; k < kids.size(); ++k, ++e) {
          const double vc = value[s.rank[kids[k]]];
          if (vc < 0.0) continue;
          const double v = vc * GapProduct(Gap(plan, e), [&](Var x) {
                             return BestWeight(weights, x);
                           });
          if (v > best) {
            best = v;
            best_k = k;
          }
        }
        TBC_DCHECK(best >= 0.0);
        return best_k;
      },
      [&](Var v) { return weights[Pos(v)] >= weights[Neg(v)]; });

  double w = 1.0;
  for (Var v = 0; v < num_vars; ++v) {
    w *= weights[Lit(v, result.assignment[v])];
  }
  result.weight = w;
  return result;
}

MpeResult MaxWmc(NnfManager& mgr, NnfId root, const WeightMap& weights,
                 size_t num_vars) {
  return std::move(
      MaxWmcBounded(mgr, root, weights, num_vars, Guard::Unlimited()).value());
}

Assignment SampleModelDnnf(NnfManager& mgr, NnfId root, size_t num_vars,
                           Rng& rng) {
  // Counting pass (the ModelCount recurrence, never cached: it keeps every
  // node's count).
  const GapPlan& plan = mgr.GapPlanCached(root);
  const LevelSchedule& s = plan.schedule;
  std::vector<BigUint> count;
  TBC_CHECK(
      Upward(mgr, plan, CountAlgebra{}, Guard::Unlimited(), nullptr, count).ok());
  TBC_CHECK_MSG(!count[s.rank[root]].IsZero(),
                "cannot sample an unsatisfiable circuit");
  // Descent. Branch probabilities use double ratios of the exact counts;
  // the bias is bounded by double rounding (~1e-16 relative).
  return Descend(
      mgr, plan, root, num_vars,
      [&](NnfId n, uint32_t i) {
        const Span<const NnfId> kids = mgr.children(n);
        const uint32_t first_edge = plan.edge_begin[i];
        double u = rng.Uniform() * count[i].ToDouble();
        size_t chosen = kids.size() - 1;
        for (size_t k = 0; k < kids.size(); ++k) {
          const size_t gap = Gap(plan, first_edge + static_cast<uint32_t>(k)).size();
          const double w = count[s.rank[kids[k]]].ToDouble() *
                           std::ldexp(1.0, static_cast<int>(gap));
          if (u < w) {
            chosen = k;
            break;
          }
          u -= w;
        }
        // Pick only children with nonzero count (⊥ children have w = 0 and
        // can only be reached via the fallback; skip them).
        if (count[s.rank[kids[chosen]]].IsZero()) {
          for (size_t k = 0; k < kids.size(); ++k) {
            if (!count[s.rank[kids[k]]].IsZero()) chosen = k;
          }
        }
        return chosen;
      },
      [&](Var) { return rng.Flip(0.5); });
}

bool EntailsClause(NnfManager& mgr, NnfId root, const Clause& clause) {
  // root ⊨ clause  iff  root ∧ ¬clause is unsatisfiable.
  NnfId conditioned = root;
  for (Lit l : clause) conditioned = mgr.Condition(conditioned, ~l);
  return !IsSatDnnf(mgr, conditioned);
}

NnfId Forget(NnfManager& mgr, NnfId root, const std::vector<Var>& vars) {
  std::vector<uint64_t> forget_set((mgr.num_vars() + 63) / 64, 0);
  for (Var v : vars) {
    // A variable the manager has never seen is mentioned nowhere, and
    // ∃v.f = f when f does not mention v.
    if (v < mgr.num_vars()) forget_set[v / 64] |= 1ull << (v % 64);
  }
  return mgr.RewriteLiterals(root, [&](NnfId n) {
    const Var v = mgr.lit(n).var();
    return (forget_set[v / 64] >> (v % 64)) & 1 ? mgr.True() : n;
  });
}

MaxSumResult MaxSumWmc(NnfManager& mgr, NnfId root, const WeightMap& weights,
                       const std::vector<Var>& max_vars) {
  mgr.VarSet(root);  // fills every set below root: later calls only read
  std::vector<uint64_t> max_set((mgr.num_vars() + 63) / 64, 0);
  for (Var v : max_vars) {
    TBC_CHECK_MSG(v < mgr.num_vars(),
                  "MaxSumWmc: variable not below num_vars()");
    max_set[v / 64] |= 1ull << (v % 64);
  }
  auto touches_max = [&](NnfId n) {
    const Span<const uint64_t> vs = mgr.VarSet(n);
    for (size_t w = 0; w < vs.size() && w < max_set.size(); ++w) {
      if ((vs[w] & max_set[w]) != 0) return true;
    }
    return false;
  };

  const std::vector<NnfId> order = mgr.TopologicalOrder(root);
  std::vector<double> value(mgr.num_nodes(), 0.0);
  for (NnfId n : order) {
    switch (mgr.kind(n)) {
      case NnfManager::Kind::kFalse:
        value[n] = 0.0;
        break;
      case NnfManager::Kind::kTrue:
        value[n] = 1.0;
        break;
      case NnfManager::Kind::kLiteral:
        value[n] = weights[mgr.lit(n)];
        break;
      case NnfManager::Kind::kAnd: {
        double prod = 1.0;
        for (NnfId c : mgr.children(n)) prod *= value[c];
        value[n] = prod;
        break;
      }
      case NnfManager::Kind::kOr: {
        double best = 0.0;
        if (touches_max(n)) {
          best = -1.0;
          for (NnfId c : mgr.children(n)) best = std::max(best, value[c]);
        } else {
          for (NnfId c : mgr.children(n)) best += value[c];
        }
        value[n] = best;
        break;
      }
    }
  }

  // Traceback: descend argmax branches of max-or gates, collecting max-var
  // literals along the chosen paths.
  MaxSumResult result;
  result.value = value[root];
  std::vector<NnfId> stack = {root};
  std::vector<int8_t> chosen(2 * mgr.num_vars(), 0);
  while (!stack.empty()) {
    const NnfId n = stack.back();
    stack.pop_back();
    if (!touches_max(n)) continue;
    switch (mgr.kind(n)) {
      case NnfManager::Kind::kFalse:
      case NnfManager::Kind::kTrue:
        break;
      case NnfManager::Kind::kLiteral: {
        const Lit l = mgr.lit(n);
        if (!chosen[l.code()]) {
          chosen[l.code()] = 1;
          result.max_assignment.push_back(l);
        }
        break;
      }
      case NnfManager::Kind::kAnd:
        for (NnfId c : mgr.children(n)) stack.push_back(c);
        break;
      case NnfManager::Kind::kOr: {
        NnfId best_child = kInvalidNnf;
        double best = -1.0;
        for (NnfId c : mgr.children(n)) {
          if (value[c] > best) {
            best = value[c];
            best_child = c;
          }
        }
        if (best_child != kInvalidNnf) stack.push_back(best_child);
        break;
      }
    }
  }
  return result;
}

void EnumerateModelsDnnf(NnfManager& mgr, NnfId root, size_t num_vars,
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

}  // namespace tbc
