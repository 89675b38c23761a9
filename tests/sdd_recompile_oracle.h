// The recompilation oracle for vtree search: every candidate vtree is
// evaluated by compiling the CNF from scratch. It walks the same seeded
// neighbor sequence as the in-place search (MinimizeSddInPlace), so tests
// and bench_vtree_shapes can require the in-place result to match or beat
// it. Test and bench code only; the library ships the in-place search.

#ifndef TBC_TESTS_SDD_RECOMPILE_ORACLE_H_
#define TBC_TESTS_SDD_RECOMPILE_ORACLE_H_

#include <cstdint>
#include <optional>
#include <utility>

#include "base/guard.h"
#include "base/random.h"
#include "logic/cnf.h"
#include "sdd/compile.h"
#include "sdd/minimize.h"
#include "sdd/sdd.h"
#include "vtree/vtree.h"

namespace tbc {

/// One vtree operation applied functionally (returns the rotated copy), or
/// std::nullopt when the shape does not permit the move — rotating at a
/// leaf, or rotating a node whose relevant child is a leaf.
inline std::optional<Vtree> RotateRight(const Vtree& vtree, VtreeId at) {
  Vtree copy = vtree;
  if (!copy.RotateRightAt(at)) return std::nullopt;
  return copy;
}
inline std::optional<Vtree> RotateLeft(const Vtree& vtree, VtreeId at) {
  Vtree copy = vtree;
  if (!copy.RotateLeftAt(at)) return std::nullopt;
  return copy;
}
inline std::optional<Vtree> SwapChildren(const Vtree& vtree, VtreeId at) {
  Vtree copy = vtree;
  if (!copy.SwapChildrenAt(at)) return std::nullopt;
  return copy;
}

/// Bounded recompilation for candidate evaluation: respects the outer
/// deadline/cancellation and a node cap. Returns SIZE_MAX (reject) when
/// the compile was interrupted.
inline size_t SddSizeUnderBounded(const Cnf& cnf, const Vtree& vt,
                                  Guard& outer, uint64_t node_cap) {
  Budget inner_budget;
  inner_budget.timeout_ms = outer.has_deadline() ? outer.RemainingMs() : 0.0;
  inner_budget.max_nodes = node_cap;
  if (inner_budget.timeout_ms == 0.0 && outer.has_deadline()) return SIZE_MAX;
  Guard inner(inner_budget);
  SddManager mgr(vt);
  mgr.set_auto_minimize(SddAutoMinimizeOptions{});
  mgr.set_guard(&inner);
  const SddId f = CompileCnf(mgr, cnf);
  if (mgr.interrupted() || outer.cancelled()) return SIZE_MAX;
  return mgr.Size(f) + 1;
}

/// Recompilation-based search over the in-place search's neighborhood,
/// with MinimizeVtree's result conventions (sizes count the root, best-so-
/// far on interruption).
inline MinimizeResult MinimizeVtreeByRecompile(const Cnf& cnf,
                                               const Vtree& initial,
                                               size_t budget, uint64_t seed,
                                               Guard& guard) {
  Rng rng(seed);
  MinimizeResult result;
  result.vtree = initial;
  {
    SddManager mgr(initial);
    mgr.set_auto_minimize(SddAutoMinimizeOptions{});
    mgr.set_guard(&guard);
    const SddId f = CompileCnf(mgr, cnf);
    mgr.set_guard(nullptr);
    if (mgr.interrupted()) {
      result.interrupted = true;
      result.interrupt_status = mgr.interrupt_status();
      return result;
    }
    result.initial_size = mgr.Size(f) + 1;
  }
  result.size = result.initial_size;
  for (size_t i = 0; i < budget; ++i) {
    Status s = guard.Check();
    if (!s.ok()) {
      result.interrupted = true;
      result.interrupt_status = std::move(s);
      break;
    }
    const VtreeId at = static_cast<VtreeId>(rng.Below(result.vtree.num_nodes()));
    const int op = static_cast<int>(rng.Below(3));
    ++result.iterations;
    std::optional<Vtree> candidate =
        op == 0   ? RotateRight(result.vtree, at)
        : op == 1 ? RotateLeft(result.vtree, at)
                  : SwapChildren(result.vtree, at);
    if (!candidate.has_value()) continue;  // shape did not permit the move
    // A neighbor larger than the incumbent can never be accepted, so cap
    // its recompilation at a small multiple of the incumbent size.
    const uint64_t cap = 4 * static_cast<uint64_t>(result.size) + 256;
    const size_t size = SddSizeUnderBounded(cnf, *candidate, guard, cap);
    if (size <= result.size) {  // accept sideways moves to escape plateaus
      result.size = size;
      result.vtree = std::move(*candidate);
    }
  }
  return result;
}

}  // namespace tbc

#endif  // TBC_TESTS_SDD_RECOMPILE_ORACLE_H_
