#include "sdd/from_obdd.h"

#include <vector>

#ifdef TBC_VALIDATE
#include "analysis/validate.h"
#endif

namespace tbc {

SddId ObddToSdd(const ObddManager& obdd, ObddId f, SddManager& sdd) {
  // Every OBDD node yields at least one SDD apply, so the manager's node
  // pool is at least OBDD-sized: reserve up front.
  sdd.ReserveNodes(sdd.num_nodes() + obdd.num_nodes());
  std::vector<SddId> value(obdd.num_nodes());
  value[obdd.False()] = sdd.False();
  value[obdd.True()] = sdd.True();
  for (const ObddId g : obdd.ReachableAscending(f)) {
    if (obdd.IsTerminal(g)) continue;
    const Var v = obdd.var(g);
    // lo before hi: the order in which the nested call this loop replaced
    // evaluated its arguments under GCC. It numbers the SDD's nodes, and
    // the route PSDD's pinned samples follow those numbers.
    const SddId lo = sdd.Conjoin(sdd.LiteralNode(Neg(v)), value[obdd.lo(g)]);
    const SddId hi = sdd.Conjoin(sdd.LiteralNode(Pos(v)), value[obdd.hi(g)]);
    value[g] = sdd.Disjoin(hi, lo);
  }
  const SddId root = value[f];
#ifdef TBC_VALIDATE
  ValidateObddOrDie(obdd, f, "ObddToSdd (input)");
  if (sdd.guard() == nullptr) ValidateSddOrDie(sdd, root, "ObddToSdd");
#endif
  return root;
}

}  // namespace tbc
