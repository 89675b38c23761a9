#include "nnf/queries.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "base/check.h"
#include "nnf/upward.h"

namespace tbc {

std::vector<Var> internal::OutsideRootVars(const GapPlan& plan,
                                           size_t num_vars) {
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

namespace {

using internal::ArgmaxInput;
using internal::BestWeight;
using internal::Descend;
using internal::Fold;
using internal::FreeWeight;
using internal::Gap;
using internal::GapProduct;
using internal::kGrain;
using internal::OutsideRootVars;
using internal::Upward;

// The algebras of the one upward pass (internal::Upward). Each gives the
// value of ⊥, ⊤ and a literal, the and-gate product, and the or-gate sum,
// to which an input adds its value scaled by its edge's gap.

// Exact model counts: a gap of k free variables multiplies by 2^k.
struct CountAlgebra {
  using Value = BigUint;
  BigUint Zero() const { return BigUint(0); }
  BigUint One() const { return BigUint(1); }
  BigUint Literal(Lit) const { return BigUint(1); }
  void Times(BigUint& acc, const BigUint& x) const { acc *= x; }
  void Plus(BigUint& acc, const BigUint& x, Span<const Var> gap,
            size_t) const {
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
  void Plus(double& acc, double x, Span<const Var> gap, size_t) const {
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
  void Plus(double& acc, double x, Span<const Var> gap, size_t) const {
    if (x < 0.0) return;
    acc = std::max(acc, x * GapProduct(gap, [&](Var v) {
                          return BestWeight(weights, v);
                        }));
  }
};

// Minimum number of positive literals; SIZE_MAX is unsatisfiable. A gap
// variable can always be set false, so gaps add nothing.
struct MinCardAlgebra {
  using Value = size_t;
  static constexpr size_t kInf = std::numeric_limits<size_t>::max();
  size_t Zero() const { return kInf; }
  size_t One() const { return 0; }
  size_t Literal(Lit l) const { return l.positive() ? 1 : 0; }
  void Times(size_t& acc, size_t x) const {
    acc = acc == kInf || x == kInf ? kInf : acc + x;
  }
  void Plus(size_t& acc, size_t x, Span<const Var>, size_t) const {
    acc = std::min(acc, x);
  }
};

// Derivative of base·Π_{k<count} factor(k): calls add(k, ∂/∂factor(k)),
// that is base·Π_{j≠k} factor(j), for each k. A zero factor is never
// divided out: with one, only it gets a nonzero derivative; with two or
// more, none does. Returns Π factor(k), multiplied in order of k.
template <typename Factor, typename Add>
double AddProductDerivative(size_t count, Factor&& factor, double base,
                            Add&& add) {
  size_t zeros = 0;
  double prod_nonzero = 1.0;
  for (size_t k = 0; k < count; ++k) {
    const double f = factor(k);
    if (f == 0.0) {
      ++zeros;
    } else {
      prod_nonzero *= f;
    }
  }
  if (base != 0.0 && zeros == 0) {
    for (size_t k = 0; k < count; ++k) add(k, base * prod_nonzero / factor(k));
  } else if (base != 0.0 && zeros == 1) {
    for (size_t k = 0; k < count; ++k) {
      if (factor(k) == 0.0) add(k, base * prod_nonzero);
    }
  }
  return zeros == 0 ? prod_nonzero : 0.0;
}

// The product F = Π_{x∈vars} FreeWeight(x) times `base`, differentiated:
// adds base·Π_{y∈vars, y≠x} FreeWeight(y) to d[l] for both literals l of
// every x in vars (W(x)+W(¬x) has derivative 1 in each). Returns F, which
// for a gap equals the upward pass's GapProduct.
double AddGapDerivative(Span<const Var> vars, const WeightMap& w, double base,
                        std::vector<double>& d) {
  return AddProductDerivative(
      vars.size(), [&](size_t k) { return FreeWeight(w, vars[k]); }, base,
      [&](size_t k, double dx) {
        d[Pos(vars[k]).code()] += dx;
        d[Neg(vars[k]).code()] += dx;
      });
}

}  // namespace

bool IsSatDnnf(NnfManager& mgr, NnfId root) {
  // A DNNF is satisfiable iff it does not entail the empty clause.
  return !EntailsClause(mgr, root, {});
}

Result<BigUint> ModelCountBounded(NnfManager& mgr, NnfId root, size_t num_vars,
                                  Guard& guard) {
  TBC_RETURN_IF_ERROR(guard.Check());
  // The store is append-only, so a root's count over a fixed universe never
  // changes; repeated counts on the same root hit the manager's cache.
  if (const BigUint* hit = mgr.FindModelCount(root, num_vars)) return *hit;
  const GapPlan& plan = mgr.GapPlanCached(root);
  std::vector<BigUint> count;
  TBC_RETURN_IF_ERROR(Upward(mgr, plan, CountAlgebra{}, guard, count));
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
                          Guard& guard) {
  TBC_RETURN_IF_ERROR(guard.Check());
  const GapPlan& plan = mgr.GapPlanCached(root);
  std::vector<double> value;
  TBC_RETURN_IF_ERROR(Upward(mgr, plan, WmcAlgebra{weights}, guard, value));
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
  TBC_RETURN_IF_ERROR(Upward(mgr, plan, WmcAlgebra{weights}, guard, value));

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
        // d/dc = dn·Π_{c'≠c} v(c').
        const Span<const NnfId> kids = mgr.children(n);
        AddProductDerivative(
            kids.size(), [&](size_t k) { return value[s.rank[kids[k]]]; }, dn,
            [&](size_t k, double dx) { deriv[s.rank[kids[k]]] += dx; });
        break;
      }
    }
  };
  TBC_RETURN_IF_ERROR(ForRange(guard, 0, num_nodes, kGrain, step));
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
  return Fold(mgr, root, MinCardAlgebra{});
}

Result<MpeResult> MaxWmcBounded(NnfManager& mgr, NnfId root,
                                const WeightMap& weights, size_t num_vars,
                                Guard& guard) {
  TBC_RETURN_IF_ERROR(guard.Check());
  const GapPlan& plan = mgr.GapPlanCached(root);
  const LevelSchedule& s = plan.schedule;
  std::vector<double> value;
  TBC_RETURN_IF_ERROR(Upward(mgr, plan, MpeAlgebra{weights}, guard, value));
  TBC_CHECK_MSG(value[s.rank[root]] >= 0.0, "MaxWmc on unsatisfiable circuit");

  // Traceback: ties break on child order.
  MpeResult result;
  result.assignment = Descend(
      mgr, plan, root, num_vars,
      [&](NnfId n, uint32_t i) {
        return ArgmaxInput(mgr, plan, value, n, i,
                           [&](Var x) { return BestWeight(weights, x); });
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
  TBC_CHECK(Upward(mgr, plan, CountAlgebra{}, Guard::Unlimited(), count).ok());
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
  // root ⊨ clause iff root ∧ ¬clause is unsatisfiable, which on a DNNF is
  // ⊥ reaching the root once the clause's literals are false and every
  // other literal is true. A clause with both x and ¬x is valid.
  std::vector<uint8_t> in_clause;
  for (Lit l : clause) {
    if (in_clause.size() <= (l.code() | 1)) in_clause.resize((l.code() | 1) + 1, 0);
    in_clause[l.code()] = 1;
    if (in_clause[(~l).code()] != 0) return true;
  }
  auto literal_true = [&](Lit l) {
    return l.code() >= in_clause.size() || in_clause[l.code()] == 0;
  };
  return Fold(mgr, root, internal::TruthAlgebra{literal_true}) == 0;
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

}  // namespace tbc
