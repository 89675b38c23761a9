#include "xai/robustness.h"

#include <algorithm>
#include <vector>

#include "base/check.h"

namespace tbc {

namespace {

// Minimum Hamming distance from x to a model of g; SIZE_MAX if g is ⊥.
size_t MinDistanceToModel(const ObddManager& mgr, ObddId g,
                          const Assignment& x) {
  std::vector<size_t> dist(mgr.num_nodes(), SIZE_MAX);
  dist[mgr.True()] = 0;  // free vars keep their x values
  for (const ObddId h : mgr.ReachableAscending(g)) {
    if (mgr.IsTerminal(h)) continue;
    const Var v = mgr.var(h);
    const size_t keep = dist[x[v] ? mgr.hi(h) : mgr.lo(h)];
    const size_t flip = dist[x[v] ? mgr.lo(h) : mgr.hi(h)];
    dist[h] = flip == SIZE_MAX ? keep : std::min(keep, flip + 1);
  }
  return dist[g];
}

// g with variable v complemented.
ObddId FlipVar(ObddManager& mgr, ObddId g, Var v) {
  return mgr.Ite(mgr.LiteralNode(Pos(v)), mgr.Restrict(g, v, false),
                 mgr.Restrict(g, v, true));
}

// Instances within Hamming distance 1 of a model of g (including g).
ObddId Expand(ObddManager& mgr, ObddId g) {
  ObddId out = g;
  for (Var v = 0; v < mgr.num_vars(); ++v) {
    out = mgr.Or(out, FlipVar(mgr, g, v));
  }
  return out;
}

}  // namespace

size_t DecisionRobustness(ObddManager& mgr, ObddId f, const Assignment& x) {
  const bool decision = mgr.Evaluate(f, x);
  const ObddId opposite = decision ? mgr.Not(f) : f;
  return MinDistanceToModel(mgr, opposite, x);
}

ModelRobustnessResult ModelRobustness(ObddManager& mgr, ObddId f) {
  ModelRobustnessResult result;
  result.histogram.assign(1, BigUint(0));
  TBC_CHECK_MSG(f != mgr.True() && f != mgr.False(),
                "model robustness undefined for constant classifiers");
  const size_t n = mgr.num_vars();
  const BigUint total = BigUint::PowerOfTwo(static_cast<unsigned>(n));

  // reach[b] ⊇ instances of decision b already known to flip within the
  // current radius.
  ObddId region[2] = {mgr.Not(f), f};
  ObddId reach[2] = {mgr.False(), mgr.False()};
  ObddId ball[2] = {region[1], region[0]};  // distance-0 balls of opposite
  BigUint covered(0);
  BigUint weighted_sum(0);
  size_t k = 0;
  while (covered < total) {
    ++k;
    TBC_CHECK_MSG(k <= n, "robustness expansion exceeded variable count");
    BigUint level_count(0);
    for (int b = 0; b < 2; ++b) {
      ball[b] = Expand(mgr, ball[b]);  // distance-k ball around opposite
      const ObddId now = mgr.And(ball[b], region[b]);
      // Newly covered at this level.
      const ObddId fresh = mgr.And(now, mgr.Not(reach[b]));
      level_count += mgr.ModelCount(fresh);
      reach[b] = now;
    }
    result.histogram.push_back(level_count);
    weighted_sum += level_count * BigUint(k);
    covered += level_count;
  }
  result.maximum = k;
  result.average = weighted_sum.ToDouble() / total.ToDouble();
  return result;
}

}  // namespace tbc
