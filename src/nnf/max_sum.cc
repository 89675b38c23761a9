// MaxSumWmc (nnf/queries.h): constrained max-sum for MAP and E-MAJSAT
// (paper Fig 10b) on the one upward driver. It has a file of its own
// because, compiled into queries.cc, its two extra driver instantiations
// made GCC 12 stop inlining the guard poll into the served kernels' loops
// at -O3, and bench_kernels' nnf_mpe ran about 8% slower.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/check.h"
#include "nnf/queries.h"
#include "nnf/upward.h"

namespace tbc {

namespace {

using internal::ArgmaxInput;
using internal::BestWeight;
using internal::Descend;
using internal::FreeWeight;
using internal::GapProduct;
using internal::OutsideRootVars;
using internal::Upward;

// Max-sum values (paper Fig 10b): an or-gate marked in `max_gate` (by
// rank) takes the max over its inputs, any other the sum, and a gap
// variable v scales its edge by factor[v].
struct MaxSumAlgebra {
  using Value = double;
  const WeightMap& weights;
  const std::vector<double>& factor;
  const std::vector<uint8_t>& max_gate;
  double Zero() const { return 0.0; }
  double One() const { return 1.0; }
  double Literal(Lit l) const { return weights[l]; }
  void Times(double& acc, double x) const { acc *= x; }
  void Plus(double& acc, double x, Span<const Var> gap, size_t gate) const {
    const double v = x * GapProduct(gap, [&](Var u) { return factor[u]; });
    acc = max_gate[gate] ? std::max(acc, v) : acc + v;
  }
};

// 1 for a node that mentions a variable marked in `marked`. An or-gate's
// gaps lie within its inputs' variables, so they add nothing.
struct MentionsAlgebra {
  using Value = uint8_t;
  const std::vector<uint8_t>& marked;
  uint8_t Zero() const { return 0; }
  uint8_t One() const { return 0; }
  uint8_t Literal(Lit l) const { return marked[l.var()]; }
  void Times(uint8_t& acc, uint8_t x) const { acc |= x; }
  void Plus(uint8_t& acc, uint8_t x, Span<const Var>, size_t) const {
    acc |= x;
  }
};

}  // namespace

MaxSumResult MaxSumWmc(NnfManager& mgr, NnfId root, const WeightMap& weights,
                       const std::vector<Var>& max_vars) {
  const size_t num_vars = weights.num_vars();
  std::vector<uint8_t> is_max(num_vars, 0);
  for (Var v : max_vars) {
    TBC_CHECK_MSG(v < num_vars, "MaxSumWmc: variable not below weights.num_vars()");
    is_max[v] = 1;
  }
  // A variable free under a max gate, or outside the root, contributes its
  // heavier literal if it is a max variable and both literals otherwise.
  std::vector<double> factor(num_vars);
  for (Var v = 0; v < num_vars; ++v) {
    factor[v] = is_max[v] ? BestWeight(weights, v) : FreeWeight(weights, v);
  }
  const GapPlan& plan = mgr.GapPlanCached(root);
  const LevelSchedule& s = plan.schedule;
  // Or-gates that mention a max variable take the max, the rest the sum.
  std::vector<uint8_t> max_gate;
  TBC_CHECK(
      Upward(mgr, plan, MentionsAlgebra{is_max}, Guard::Unlimited(), max_gate)
          .ok());
  std::vector<double> value;
  TBC_CHECK(Upward(mgr, plan, MaxSumAlgebra{weights, factor, max_gate},
                   Guard::Unlimited(), value)
                .ok());
  MaxSumResult result;
  result.value = value[s.rank[root]];
  for (Var v : OutsideRootVars(plan, num_vars)) result.value *= factor[v];

  // Traceback: the argmax input of each max gate (ties break on child
  // order); a sum gate's inputs mention no max variable, so any will do.
  const Assignment x = Descend(
      mgr, plan, root, num_vars,
      [&](NnfId n, uint32_t i) {
        if (!max_gate[i]) return size_t{0};
        return ArgmaxInput(mgr, plan, value, n, i,
                           [&](Var u) { return factor[u]; });
      },
      [&](Var v) { return weights[Pos(v)] >= weights[Neg(v)]; });
  for (Var v : max_vars) result.max_assignment.push_back(Lit(v, x[v]));
  return result;
}

}  // namespace tbc
