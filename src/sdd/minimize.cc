#include "sdd/minimize.h"

#include <utility>

#include "base/check.h"
#include "base/observability.h"
#include "base/random.h"
#include "sdd/compile.h"
#include "sdd/sdd.h"

#ifdef TBC_VALIDATE
#include "analysis/validate.h"
#endif

namespace tbc {

SddInPlaceMinimizeResult MinimizeSddInPlace(SddManager& mgr, SddId root,
                                            size_t budget, uint64_t seed) {
  TBC_SPAN("sdd.minimize.inplace");
  SddInPlaceMinimizeResult result;
  result.root = mgr.Resolve(root);
  if (mgr.interrupted()) {
    result.interrupted = true;
    result.interrupt_status = mgr.interrupt_status();
    return result;
  }
  result.initial_size = mgr.Size(result.root);
  result.size = result.initial_size;
  Guard* outer = mgr.guard();
  // Per-edit work cap (Choi & Darwiche's "limited" operations): an edit
  // that interns more nodes than the manager held live at pass start is no
  // local move at all — it is a global restructuring priced like a
  // recompile — so it is aborted (and rolled back) early. The cap counts
  // nodes, as the edit's own charges do. The incumbent's Size() counts
  // elements and runs larger; as a cap it let passes pay for costly edits
  // they then rejected, making auto-minimize slower with no consistent
  // gain in final size (DESIGN.md "The search"). Read ONCE: edits inflate
  // the live count with their own rewrite and undo generations, and
  // re-reading it per edit let that inflation raise the budget of every
  // later edit — a feedback loop that once made aggressive auto-minimize
  // ~100x slower than the compile itself.
  const uint64_t edit_node_cap =
      static_cast<uint64_t>(mgr.live_node_count()) + 256;
  Rng rng(seed);
  const size_t num_vt = mgr.vtree().num_nodes();
  const auto edit = [&mgr](int op, VtreeId at) {
    switch (op) {
      case 0:
        return mgr.RotateRightInPlace(at);
      case 1:
        return mgr.RotateLeftInPlace(at);
      default:
        return mgr.SwapChildrenInPlace(at);
    }
  };
  for (size_t i = 0; i < budget; ++i) {
    if (outer != nullptr) {
      Status s = outer->Check();
      if (!s.ok()) {
        result.interrupted = true;
        result.interrupt_status = std::move(s);
        break;
      }
    }
    const VtreeId at = static_cast<VtreeId>(rng.Below(num_vt));
    const int op = static_cast<int>(rng.Below(3));
    ++result.iterations;
    TBC_COUNT("sdd.minimize.iterations");
    // The outer deadline, when there is one, bounds the edit as well.
    Budget inner_budget;
    inner_budget.max_nodes = edit_node_cap;
    if (outer != nullptr && outer->has_deadline()) {
      inner_budget.timeout_ms = outer->RemainingMs();
      if (inner_budget.timeout_ms <= 0.0) {
        // The outer deadline expired between the Check above and here.
        result.interrupted = true;
        result.interrupt_status = Status::DeadlineExceeded(
            "deadline exceeded before in-place edit");
        break;
      }
    }
    Guard inner(inner_budget);
    mgr.set_guard(&inner);
    const SddEditResult er = edit(op, at);
    mgr.set_guard(outer);
    if (er.aborted) {
      ++result.aborted;
      mgr.ClearInterrupt();
      // The inner guard inherits the outer deadline; find out which budget
      // actually tripped.
      if (outer != nullptr) {
        Status s = outer->Check();
        if (!s.ok()) {
          result.interrupted = true;
          result.interrupt_status = std::move(s);
          break;
        }
      }
      continue;
    }
    if (!er.applied) continue;
    ++result.applied;
    root = mgr.Resolve(result.root);
    const size_t size = mgr.Size(root);
#ifdef TBC_VALIDATE
    {
      // Analyzer-clean after every committed edit. The partition check
      // interns prime disjunctions, so it runs on a guard-free copy: the
      // searched manager's live count — auto-minimize's trigger — must not
      // depend on the build.
      SddManager snapshot = mgr;
      snapshot.set_guard(nullptr);
      ValidateSddOrDie(snapshot, root, "MinimizeSddInPlace");
    }
#endif
    if (size <= result.size) {  // accept sideways moves to escape plateaus
      if (size < result.size) TBC_COUNT("sdd.minimize.improvements");
      result.size = size;
      result.root = root;
      continue;
    }
    // Reject: undo via the exact inverse at the same node. The rollback
    // must complete to keep the incumbent, so it runs unguarded; its cost
    // is bounded by the fragment the forward edit just rebuilt.
    mgr.set_guard(nullptr);
    const SddEditResult undo = edit(op == 0 ? 1 : op == 1 ? 0 : 2, at);
    mgr.set_guard(outer);
    TBC_CHECK_MSG(undo.applied, "inverse vtree edit must always apply");
    result.root = mgr.Resolve(result.root);
  }
  if (result.initial_size > 0) {
    TBC_OBSERVE_VALUE("sdd.minimize.size_reduction_pct",
                      (100 * (result.initial_size - result.size)) /
                          result.initial_size);
  }
  return result;
}

MinimizeResult MinimizeVtree(const Cnf& cnf, const Vtree& initial,
                             size_t budget, uint64_t seed) {
  return MinimizeVtree(cnf, initial, budget, seed, Guard::Unlimited());
}

MinimizeResult MinimizeVtree(const Cnf& cnf, const Vtree& initial,
                             size_t budget, uint64_t seed, Guard& guard) {
  TBC_SPAN("sdd.minimize");
  MinimizeResult result;
  result.vtree = initial;
  // Compile once under the full outer guard; every subsequent step is an
  // in-place fragment edit, not a recompilation.
  SddManager mgr(initial);
  // The search drives its own edits; a process-wide auto-minimize default
  // would interleave extra edits and perturb the seeded sequence.
  mgr.set_auto_minimize(SddAutoMinimizeOptions{});
  mgr.set_guard(&guard);
  SddId f = CompileCnf(mgr, cnf);
  if (mgr.interrupted()) {
    result.interrupted = true;
    result.interrupt_status = mgr.interrupt_status();
    return result;
  }
  // The compile leaves every intermediate apply result live, and an edit
  // must rewrite ALL nodes at its vtree label — garbage included. The
  // manager is ours and `f` is the only root, so collect first; edits
  // then scale with the actual SDD instead of the compile's debris.
  f = mgr.GarbageCollect(f);
  const SddInPlaceMinimizeResult r = MinimizeSddInPlace(mgr, f, budget, seed);
  mgr.set_guard(nullptr);
  // Sizes keep the historical "+1" convention of this API (compilation
  // size including the root count, never 0 for a successful compile).
  result.initial_size = r.initial_size + 1;
  result.size = r.size + 1;
  result.iterations = r.iterations;
  result.interrupted = r.interrupted;
  result.interrupt_status = r.interrupt_status;
  // The live SDD is canonical for the manager's current vtree, which the
  // loop invariant keeps equal to the incumbent's vtree.
  result.vtree = mgr.vtree();
#ifdef TBC_VALIDATE
  // Cross-check: recompiling under the winning vtree must reproduce the
  // in-place result (the in-place path preserves canonicity).
  if (!result.interrupted) {
    SddManager check(result.vtree);
    check.set_auto_minimize(SddAutoMinimizeOptions{});
    const SddId g = CompileCnf(check, cnf);
    ValidateSddOrDie(check, g, "MinimizeVtree");
    TBC_CHECK_MSG(check.Size(g) + 1 == result.size,
                  "in-place minimized SDD disagrees with recompilation");
  }
#elif defined(TBC_CERTIFY)
  // Certify the winning vtree's circuit. (With TBC_VALIDATE on, the
  // recompile above already certifies through CompileCnf's guard-free
  // hook, so this block only exists when that one is compiled out.)
  if (!result.interrupted) {
    SddManager check(result.vtree);
    CompileCnf(check, cnf);
  }
#endif
  return result;
}

}  // namespace tbc
