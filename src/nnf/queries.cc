#include "nnf/queries.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "base/check.h"
#include "nnf/properties.h"

namespace tbc {

namespace {

// Indices per chunk claimed off the pool; also the serial poll period.
constexpr size_t kGrain = 64;

// Runs body(i) for i in [begin, end): over the pool's lanes when one is
// given and the range is worth splitting, inline otherwise. Either way the
// guard is polled about once per kGrain indices.
Status ForRange(ThreadPool* pool, Guard& guard, size_t begin, size_t end,
                const std::function<void(size_t)>& body) {
  if (pool != nullptr && pool->num_threads() > 1 && end - begin > kGrain) {
    return pool->ParallelFor(begin, end, kGrain, body, &guard);
  }
  for (size_t i = begin; i < end; ++i) {
    if ((i - begin) % kGrain == 0) TBC_RETURN_IF_ERROR(guard.Poll());
    body(i);
  }
  return Status::Ok();
}

// Number of variables in the gap of GapPlan edge slot `e` (the counting
// kernels' exponent of 2).
unsigned GapSize(const GapPlan& plan, uint32_t e) {
  return plan.gap_begin[e + 1] - plan.gap_begin[e];
}

// Product of `factor` over the gap of GapPlan edge slot `e`, multiplied in
// ascending variable order.
double GapProduct(const GapPlan& plan, uint32_t e,
                  const std::vector<double>& factor) {
  double f = 1.0;
  for (uint32_t k = plan.gap_begin[e]; k < plan.gap_begin[e + 1]; ++k) {
    f *= factor[plan.gap_vars[k]];
  }
  return f;
}

// Product of `factor` over variables 0..factor.size()-1 outside the root.
double OutsideRootProduct(const GapPlan& plan,
                          const std::vector<double>& factor) {
  double f = 1.0;
  for (size_t v = 0; v < factor.size(); ++v) {
    const size_t w = v / 64;
    const bool below =
        w < plan.root_vars.size() && ((plan.root_vars[w] >> (v % 64)) & 1) != 0;
    if (!below) f *= factor[v];
  }
  return f;
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
  const LevelSchedule& s = *plan.schedule;
  std::vector<BigUint> count(s.order.size());
  for (size_t l = 0; l < s.num_levels(); ++l) {
    TBC_RETURN_IF_ERROR(ForRange(
        pool, guard, s.level_begin[l], s.level_begin[l + 1], [&](size_t i) {
          const NnfId n = s.order[i];
          switch (mgr.kind(n)) {
            case NnfManager::Kind::kFalse:
              break;  // slots default to 0
            case NnfManager::Kind::kTrue:
            case NnfManager::Kind::kLiteral:
              count[i] = BigUint(1);
              break;
            case NnfManager::Kind::kAnd: {
              BigUint prod(1);
              for (NnfId c : mgr.children(n)) prod *= count[s.rank[c]];
              count[i] = std::move(prod);
              break;
            }
            case NnfManager::Kind::kOr: {
              BigUint sum(0);
              uint32_t e = plan.edge_begin[i];
              for (NnfId c : mgr.children(n)) {
                // Gap factor: each variable of the gate missing from this
                // input is free, doubling the input's count.
                sum += count[s.rank[c]] * BigUint::PowerOfTwo(GapSize(plan, e++));
              }
              count[i] = std::move(sum);
              break;
            }
          }
        }));
  }
  size_t root_vars = 0;
  for (uint64_t w : plan.root_vars) root_vars += __builtin_popcountll(w);
  TBC_CHECK_MSG(root_vars <= num_vars, "num_vars smaller than circuit variables");
  BigUint result = count[s.rank[root]] *
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
  const LevelSchedule& s = *plan.schedule;
  // A variable free under a gate contributes W(x)+W(¬x).
  std::vector<double> free_weight(weights.num_vars());
  for (Var v = 0; v < free_weight.size(); ++v) {
    free_weight[v] = weights[Pos(v)] + weights[Neg(v)];
  }
  std::vector<double> value(s.order.size(), 0.0);
  for (size_t l = 0; l < s.num_levels(); ++l) {
    TBC_RETURN_IF_ERROR(ForRange(
        pool, guard, s.level_begin[l], s.level_begin[l + 1], [&](size_t i) {
          const NnfId n = s.order[i];
          switch (mgr.kind(n)) {
            case NnfManager::Kind::kFalse:
              value[i] = 0.0;
              break;
            case NnfManager::Kind::kTrue:
              value[i] = 1.0;
              break;
            case NnfManager::Kind::kLiteral:
              value[i] = weights[mgr.lit(n)];
              break;
            case NnfManager::Kind::kAnd: {
              double prod = 1.0;
              for (NnfId c : mgr.children(n)) prod *= value[s.rank[c]];
              value[i] = prod;
              break;
            }
            case NnfManager::Kind::kOr: {
              double sum = 0.0;
              uint32_t e = plan.edge_begin[i];
              for (NnfId c : mgr.children(n)) {
                sum += value[s.rank[c]] * GapProduct(plan, e++, free_weight);
              }
              value[i] = sum;
              break;
            }
          }
        }));
  }
  // Variables outside the circuit contribute (W(x)+W(¬x)) each.
  return value[s.rank[root]] * OutsideRootProduct(plan, free_weight);
}

double Wmc(NnfManager& mgr, NnfId root, const WeightMap& weights) {
  return WmcBounded(mgr, root, weights, Guard::Unlimited()).value();
}

std::vector<double> MarginalWmc(NnfManager& mgr, NnfId root,
                                const WeightMap& weights) {
  const size_t num_vars = weights.num_vars();
  const NnfId smooth = Smooth(mgr, root, num_vars);
  const LevelSchedule& s = mgr.ScheduleCached(smooth);

  // Upward pass: WMC value of every node.
  std::vector<double> value(s.order.size(), 0.0);
  for (size_t i = 0; i < s.order.size(); ++i) {
    const NnfId n = s.order[i];
    switch (mgr.kind(n)) {
      case NnfManager::Kind::kFalse:
        value[i] = 0.0;
        break;
      case NnfManager::Kind::kTrue:
        value[i] = 1.0;
        break;
      case NnfManager::Kind::kLiteral:
        value[i] = weights[mgr.lit(n)];
        break;
      case NnfManager::Kind::kAnd: {
        double prod = 1.0;
        for (NnfId c : mgr.children(n)) prod *= value[s.rank[c]];
        value[i] = prod;
        break;
      }
      case NnfManager::Kind::kOr: {
        double sum = 0.0;
        for (NnfId c : mgr.children(n)) sum += value[s.rank[c]];
        value[i] = sum;
        break;
      }
    }
  }

  // Downward pass: partial derivatives [Darwiche 2003]. Parents accumulate
  // into shared child slots, so this pass stays serial.
  std::vector<double> deriv(s.order.size(), 0.0);
  deriv[s.rank[smooth]] = 1.0;
  for (size_t i = s.order.size(); i-- > 0;) {
    const NnfId n = s.order[i];
    const double dn = deriv[i];
    if (dn == 0.0) continue;
    if (mgr.kind(n) == NnfManager::Kind::kOr) {
      for (NnfId c : mgr.children(n)) deriv[s.rank[c]] += dn;
    } else if (mgr.kind(n) == NnfManager::Kind::kAnd) {
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
    }
  }

  std::vector<double> marginal(2 * num_vars, 0.0);
  for (size_t i = 0; i < s.order.size(); ++i) {
    const NnfId n = s.order[i];
    if (mgr.kind(n) == NnfManager::Kind::kLiteral) {
      const Lit l = mgr.lit(n);
      marginal[l.code()] += deriv[i] * weights[l];
    }
  }
  return marginal;
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
  const LevelSchedule& s = *plan.schedule;
  // A variable free under a gate takes its heavier literal.
  std::vector<double> best_weight(weights.num_vars());
  for (Var v = 0; v < best_weight.size(); ++v) {
    best_weight[v] = std::max(weights[Pos(v)], weights[Neg(v)]);
  }

  std::vector<double> value(s.order.size(), 0.0);
  for (size_t l = 0; l < s.num_levels(); ++l) {
    TBC_RETURN_IF_ERROR(ForRange(
        pool, guard, s.level_begin[l], s.level_begin[l + 1], [&](size_t i) {
          const NnfId n = s.order[i];
          switch (mgr.kind(n)) {
            case NnfManager::Kind::kFalse:
              value[i] = -1.0;  // sentinel: unsatisfiable branch
              break;
            case NnfManager::Kind::kTrue:
              value[i] = 1.0;
              break;
            case NnfManager::Kind::kLiteral:
              value[i] = weights[mgr.lit(n)];
              break;
            case NnfManager::Kind::kAnd: {
              double prod = 1.0;
              for (NnfId c : mgr.children(n)) {
                if (value[s.rank[c]] < 0.0) {
                  prod = -1.0;
                  break;
                }
                prod *= value[s.rank[c]];
              }
              value[i] = prod;
              break;
            }
            case NnfManager::Kind::kOr: {
              double best = -1.0;
              uint32_t e = plan.edge_begin[i];
              for (NnfId c : mgr.children(n)) {
                const uint32_t edge = e++;
                if (value[s.rank[c]] < 0.0) continue;
                best = std::max(best, value[s.rank[c]] *
                                          GapProduct(plan, edge, best_weight));
              }
              value[i] = best;
              break;
            }
          }
        }));
  }
  TBC_CHECK_MSG(value[s.rank[root]] >= 0.0, "MaxWmc on unsatisfiable circuit");

  MpeResult result;
  result.assignment.assign(num_vars, false);
  std::vector<int8_t> assigned(num_vars, 0);
  auto set_var = [&](Var v, bool val) {
    result.assignment[v] = val;
    assigned[v] = 1;
  };
  auto set_free_max = [&](Var v) {
    set_var(v, weights[Pos(v)] >= weights[Neg(v)]);
  };

  // Traceback (serial; ties break on child order, independent of threads).
  std::vector<NnfId> stack = {root};
  while (!stack.empty()) {
    const NnfId n = stack.back();
    stack.pop_back();
    switch (mgr.kind(n)) {
      case NnfManager::Kind::kFalse:
      case NnfManager::Kind::kTrue:
        break;
      case NnfManager::Kind::kLiteral:
        set_var(mgr.lit(n).var(), mgr.lit(n).positive());
        break;
      case NnfManager::Kind::kAnd:
        for (NnfId c : mgr.children(n)) stack.push_back(c);
        break;
      case NnfManager::Kind::kOr: {
        NnfId best_child = kInvalidNnf;
        uint32_t best_edge = 0;
        double best = -1.0;
        uint32_t e = plan.edge_begin[s.rank[n]];
        for (NnfId c : mgr.children(n)) {
          const uint32_t edge = e++;
          if (value[s.rank[c]] < 0.0) continue;
          const double v = value[s.rank[c]] * GapProduct(plan, edge, best_weight);
          if (v > best) {
            best = v;
            best_child = c;
            best_edge = edge;
          }
        }
        TBC_DCHECK(best_child != kInvalidNnf);
        for (uint32_t k = plan.gap_begin[best_edge];
             k < plan.gap_begin[best_edge + 1]; ++k) {
          set_free_max(plan.gap_vars[k]);
        }
        stack.push_back(best_child);
        break;
      }
    }
  }
  // Variables never mentioned along the chosen path.
  for (Var v = 0; v < num_vars; ++v) {
    if (!assigned[v]) set_free_max(v);
  }

  double w = 1.0;
  for (Var v = 0; v < num_vars; ++v) {
    w *= weights[Lit(v, result.assignment[v])];
  }
  result.weight = w;
  return result;
}

void WarmQueries(NnfManager& mgr, NnfId root, size_t num_vars) {
  mgr.GapPlanCached(root);
  mgr.ScheduleCached(Smooth(mgr, root, num_vars));
}

MpeResult MaxWmc(NnfManager& mgr, NnfId root, const WeightMap& weights,
                 size_t num_vars) {
  return std::move(
      MaxWmcBounded(mgr, root, weights, num_vars, Guard::Unlimited()).value());
}

Assignment SampleModelDnnf(NnfManager& mgr, NnfId root, size_t num_vars,
                           Rng& rng) {
  TBC_CHECK_MSG(IsSatDnnf(mgr, root), "cannot sample an unsatisfiable circuit");
  // Counting pass (same recurrence as ModelCount).
  const GapPlan& plan = mgr.GapPlanCached(root);
  const LevelSchedule& s = *plan.schedule;
  std::vector<BigUint> count(s.order.size());
  for (size_t i = 0; i < s.order.size(); ++i) {
    const NnfId n = s.order[i];
    switch (mgr.kind(n)) {
      case NnfManager::Kind::kFalse:
        break;
      case NnfManager::Kind::kTrue:
      case NnfManager::Kind::kLiteral:
        count[i] = BigUint(1);
        break;
      case NnfManager::Kind::kAnd: {
        BigUint prod(1);
        for (NnfId c : mgr.children(n)) prod *= count[s.rank[c]];
        count[i] = std::move(prod);
        break;
      }
      case NnfManager::Kind::kOr: {
        BigUint sum(0);
        uint32_t e = plan.edge_begin[i];
        for (NnfId c : mgr.children(n)) {
          sum += count[s.rank[c]] * BigUint::PowerOfTwo(GapSize(plan, e++));
        }
        count[i] = std::move(sum);
        break;
      }
    }
  }

  Assignment x(num_vars, false);
  std::vector<int8_t> assigned(num_vars, 0);
  auto set_free = [&](Var v) {
    x[v] = rng.Flip(0.5);
    assigned[v] = 1;
  };
  // Descent. Branch probabilities use double ratios of the exact counts;
  // the bias is bounded by double rounding (~1e-16 relative).
  std::vector<NnfId> stack = {root};
  while (!stack.empty()) {
    const NnfId n = stack.back();
    stack.pop_back();
    switch (mgr.kind(n)) {
      case NnfManager::Kind::kFalse:
      case NnfManager::Kind::kTrue:
        break;
      case NnfManager::Kind::kLiteral: {
        const Lit l = mgr.lit(n);
        x[l.var()] = l.positive();
        assigned[l.var()] = 1;
        break;
      }
      case NnfManager::Kind::kAnd:
        for (NnfId c : mgr.children(n)) stack.push_back(c);
        break;
      case NnfManager::Kind::kOr: {
        const uint32_t first_edge = plan.edge_begin[s.rank[n]];
        double u = rng.Uniform() * count[s.rank[n]].ToDouble();
        NnfId chosen = kInvalidNnf;
        uint32_t chosen_edge = first_edge;
        uint32_t e = first_edge;
        for (NnfId c : mgr.children(n)) {
          const uint32_t edge = e++;
          const double w = count[s.rank[c]].ToDouble() *
                           std::ldexp(1.0, static_cast<int>(GapSize(plan, edge)));
          if (u < w || c == mgr.children(n).back()) {
            chosen = c;
            chosen_edge = edge;
            break;
          }
          u -= w;
        }
        // Pick only children with nonzero count (⊥ children have w = 0 and
        // can only be reached via the fallback; skip them).
        if (count[s.rank[chosen]].IsZero()) {
          e = first_edge;
          for (NnfId c : mgr.children(n)) {
            const uint32_t edge = e++;
            if (!count[s.rank[c]].IsZero()) {
              chosen = c;
              chosen_edge = edge;
            }
          }
        }
        for (uint32_t k = plan.gap_begin[chosen_edge];
             k < plan.gap_begin[chosen_edge + 1]; ++k) {
          set_free(plan.gap_vars[k]);
        }
        stack.push_back(chosen);
        break;
      }
    }
  }
  // Variables outside the circuit.
  for (Var v = 0; v < num_vars; ++v) {
    if (!assigned[v]) set_free(v);
  }
  return x;
}

bool EntailsClause(NnfManager& mgr, NnfId root, const Clause& clause) {
  // root ⊨ clause  iff  root ∧ ¬clause is unsatisfiable.
  NnfId conditioned = root;
  for (Lit l : clause) conditioned = mgr.Condition(conditioned, ~l);
  return !IsSatDnnf(mgr, conditioned);
}

NnfId Forget(NnfManager& mgr, NnfId root, const std::vector<Var>& vars) {
  std::vector<uint64_t> forget_set((mgr.num_vars() + 63) / 64, 0);
  for (Var v : vars) forget_set[v / 64] |= 1ull << (v % 64);
  // Dense memo indexed by original node id; And/Or below may append nodes,
  // but only pre-existing ids are ever looked up.
  std::vector<NnfId> memo(mgr.num_nodes(), kInvalidNnf);
  for (NnfId n : mgr.TopologicalOrder(root)) {
    NnfId result = kInvalidNnf;
    switch (mgr.kind(n)) {
      case NnfManager::Kind::kFalse:
      case NnfManager::Kind::kTrue:
        result = n;
        break;
      case NnfManager::Kind::kLiteral: {
        const Var v = mgr.lit(n).var();
        const bool forgotten = (forget_set[v / 64] >> (v % 64)) & 1;
        result = forgotten ? mgr.True() : n;
        break;
      }
      case NnfManager::Kind::kAnd:
      case NnfManager::Kind::kOr: {
        const std::vector<NnfId> kids_src = mgr.children(n).ToVector();
        std::vector<NnfId> kids;
        kids.reserve(kids_src.size());
        for (NnfId c : kids_src) kids.push_back(memo[c]);
        result = mgr.kind(n) == NnfManager::Kind::kAnd ? mgr.And(std::move(kids))
                                                       : mgr.Or(std::move(kids));
        break;
      }
    }
    memo[n] = result;
  }
  return memo[root];
}

MaxSumResult MaxSumWmc(NnfManager& mgr, NnfId root, const WeightMap& weights,
                       const std::vector<Var>& max_vars) {
  mgr.VarSet(root);
  std::vector<uint64_t> max_set((mgr.num_vars() + 63) / 64, 0);
  for (Var v : max_vars) max_set[v / 64] |= 1ull << (v % 64);
  auto touches_max = [&](NnfId n) {
    const std::vector<uint64_t>& vs = mgr.VarSet(n);
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
