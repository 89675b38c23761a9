// Reference versions of two DPLL subproblem steps, kept as oracles for
// the fused ones in compiler/subproblem.h: unit propagation by repeated
// full passes, and the component-cache key written by a separate pass
// over canonical clauses. Test code only; the library propagates with
// bounded rescans and writes the key inside Canonicalize.

#ifndef TBC_TESTS_DPLL_ORACLE_H_
#define TBC_TESTS_DPLL_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "compiler/subproblem.h"

namespace tbc::dpll_oracle {

using compiler_internal::BcpOutcome;
using compiler_internal::ClauseSet;

/// Exhaustive unit propagation by full passes: every pass scans every
/// clause, assigning each unit as soon as it is found, until a pass finds
/// none. Consumes unit clauses into `implied` and leaves the reduced rest
/// in `clauses`, in their original order.
inline BcpOutcome Propagate(ClauseSet* clauses, std::vector<Lit>* implied) {
  implied->clear();
  std::vector<Lit>& lits = clauses->lits;
  Var num_vars = 0;
  for (const Lit l : lits) num_vars = std::max(num_vars, l.var() + 1);
  std::vector<int8_t> value(num_vars, -1);  // -1: unassigned
  const auto assigned = [&value](Lit l) { return value[l.var()] >= 0; };
  std::vector<uint32_t>& ends = clauses->ends;
  bool changed = true;
  while (changed) {
    changed = false;
    uint32_t write = 0;
    size_t kept = 0;
    uint32_t begin = 0;
    for (size_t i = 0; i < ends.size(); ++i) {
      const uint32_t end = ends[i];
      const uint32_t start = write;
      bool satisfied = false;
      for (uint32_t j = begin; j < end && !satisfied; ++j) {
        const Lit l = lits[j];
        satisfied = assigned(l) && (value[l.var()] != 0) == l.positive();
      }
      if (!satisfied) {
        for (uint32_t j = begin; j < end; ++j) {
          if (!assigned(lits[j])) lits[write++] = lits[j];
        }
      }
      begin = end;
      if (satisfied) continue;
      if (write == start) return BcpOutcome::kConflict;
      if (write - start == 1) {
        const Lit u = lits[start];
        if (!assigned(u)) {
          value[u.var()] = u.positive() ? 1 : 0;
          implied->push_back(u);
          changed = true;
        }
        write = start;
        continue;
      }
      ends[kept++] = write;
    }
    lits.resize(write);
    ends.resize(kept);
  }
  return BcpOutcome::kOk;
}

/// The length-prefixed cache key of `canonical` — per clause, its literal
/// count, then its literal codes — written by its own pass.
inline std::vector<uint32_t> CacheKey(const ClauseSet& canonical) {
  std::vector<uint32_t> key;
  for (size_t i = 0; i < canonical.size(); ++i) {
    key.push_back(static_cast<uint32_t>(canonical.clause(i).size()));
    for (const Lit l : canonical.clause(i)) key.push_back(l.code());
  }
  return key;
}

}  // namespace tbc::dpll_oracle

#endif  // TBC_TESTS_DPLL_ORACLE_H_
