// The one bottom-up pass and the one top-down descent over NNF circuits
// (DESIGN.md "One driver"), with the gap helpers their algebras share.
// Internal to src/nnf/: the queries (queries.cc, max_sum.cc) and
// NnfManager::Evaluate run on these two walks; nothing outside the package
// includes this header.

#ifndef TBC_NNF_UPWARD_H_
#define TBC_NNF_UPWARD_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/guard.h"
#include "base/result.h"
#include "base/span.h"
#include "nnf/nnf.h"

namespace tbc::internal {

// Nodes between two guard polls of the upward and downward passes.
inline constexpr size_t kGrain = 64;

// Edge slot `e`'s gap variables, ascending.
inline Span<const Var> Gap(const GapPlan& plan, uint32_t e) {
  return Span<const Var>(plan.gap_vars.data() + plan.gap_begin[e],
                         plan.gap_begin[e + 1] - plan.gap_begin[e]);
}

// A variable free under a gate contributes W(x)+W(¬x) to a weighted count
// and its heavier literal, max(W(x), W(¬x)), to a maximum.
inline double FreeWeight(const WeightMap& w, Var v) {
  return w[Pos(v)] + w[Neg(v)];
}
inline double BestWeight(const WeightMap& w, Var v) {
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
// Defined in queries.cc, not inline here: GCC 12 would inline it into
// WmcBounded, growing the served WMC kernel for no gain.
std::vector<Var> OutsideRootVars(const GapPlan& plan, size_t num_vars);

// Position of the input of the or-gate n at rank i whose value, scaled by
// its edge's gap product of factor(v), is largest; ties break on child
// order, and a negative value (MpeAlgebra's ⊥) never wins.
template <typename Factor>
size_t ArgmaxInput(const NnfManager& mgr, const GapPlan& plan,
                   const std::vector<double>& value, NnfId n, uint32_t i,
                   Factor&& factor) {
  size_t best_k = 0;
  double best = -1.0;
  uint32_t e = plan.edge_begin[i];
  const Span<const NnfId> kids = mgr.children(n);
  for (size_t k = 0; k < kids.size(); ++k, ++e) {
    const double vc = value[plan.schedule.rank[kids[k]]];
    if (vc < 0.0) continue;
    const double v = vc * GapProduct(Gap(plan, e), factor);
    if (v > best) {
      best = v;
      best_k = k;
    }
  }
  return best_k;
}

// The one upward pass: slot i of `value` gets the value of the node at
// rank i of the plan's schedule. An algebra gives the value of ⊥, ⊤ and a
// literal, the and-gate product Times, and the or-gate sum Plus, to which
// an input adds its value scaled by its edge's gap; Plus also gets the
// gate's rank, for algebras whose or-gates differ by gate. A gate combines
// its inputs' values in child order, and those all sit at lower ranks, so
// the whole schedule is one sweep in rank order. A plan with no gaps at
// all (the common case for compiled BN encodings) never reads its edge
// arrays. The guard is polled throughout; on a trip the partial values are
// garbage.
template <typename Algebra>
Status Upward(const NnfManager& mgr, const GapPlan& plan, const Algebra& alg,
              Guard& guard, std::vector<typename Algebra::Value>& value) {
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
                   gapless ? Span<const Var>() : Gap(plan, e++), i);
        }
        value[i] = std::move(sum);
        break;
      }
    }
  };
  return ForRange(guard, 0, s.order.size(), kGrain, eval);
}

// Truth values, 1 for true: ⊥ is 0, ⊤ is 1, a literal l is
// literal_value(l), and-gates AND their inputs and or-gates OR them (gaps
// add nothing). EntailsClause (and with it IsSatDnnf) makes every literal
// outside its clause true, Evaluate reads an assignment.
template <typename LiteralValue>
struct TruthAlgebra {
  using Value = uint8_t;
  LiteralValue literal_value;
  uint8_t Zero() const { return 0; }
  uint8_t One() const { return 1; }
  uint8_t Literal(Lit l) const { return literal_value(l) ? 1 : 0; }
  void Times(uint8_t& acc, uint8_t x) const { acc &= x; }
  void Plus(uint8_t& acc, uint8_t x, Span<const Var>, size_t) const {
    acc |= x;
  }
};

// The folds that ignore gaps (satisfiability, minimum cardinality,
// evaluation): the upward pass over a plan holding only the root's
// schedule, built per call, so a temporary root never adds a plan to the
// manager. Returns the root's value.
template <typename Algebra>
typename Algebra::Value Fold(const NnfManager& mgr, NnfId root,
                             const Algebra& alg) {
  GapPlan plan;
  plan.schedule = mgr.Schedule(root);
  std::vector<typename Algebra::Value> value;
  TBC_CHECK(Upward(mgr, plan, alg, Guard::Unlimited(), value).ok());
  return std::move(value[plan.schedule.rank[root]]);
}

// The one top-down descent: from `root`, follows every input of an
// and-gate and, at the or-gate n of rank i, the input at position
// choose(n, i) among n's children. Literals on the path fix their
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

}  // namespace tbc::internal

#endif  // TBC_NNF_UPWARD_H_
