#ifndef TBC_SDD_MINIMIZE_H_
#define TBC_SDD_MINIMIZE_H_

#include <cstdint>

#include "base/guard.h"
#include "logic/cnf.h"
#include "sdd/sdd.h"
#include "vtree/vtree.h"

namespace tbc {

/// Result of a vtree search.
struct MinimizeResult {
  Vtree vtree;
  size_t size = 0;          // SDD size under the returned vtree
  size_t initial_size = 0;  // SDD size under the initial vtree
  size_t iterations = 0;    // neighbors evaluated
  /// True when the guard stopped the search early. The result is still the
  /// best vtree found so far (graceful degradation), except when even the
  /// initial compilation was interrupted — then size == 0 and the initial
  /// vtree is returned unevaluated.
  bool interrupted = false;
  Status interrupt_status;  // why, when interrupted
};

/// Result of an in-place minimization pass over a live SDD.
struct SddInPlaceMinimizeResult {
  SddId root = kInvalidSdd;  // re-homed root (chase of the input root)
  size_t size = 0;           // SDD size of `root` after the pass
  size_t initial_size = 0;   // SDD size before the pass
  size_t iterations = 0;     // edits attempted (including inapplicable ones)
  size_t applied = 0;        // edits that committed
  size_t aborted = 0;        // edits rolled back by the per-edit work cap
  bool interrupted = false;  // the manager's guard stopped the search
  Status interrupt_status;
};

/// SDD size minimization by searching vtree space (dynamic vtree
/// minimization [Choi & Darwiche 2013], which the paper cites for SDD
/// sizes ranging "from linear to exponential" with the vtree).
///
/// Stochastic greedy local search over the classic vtree operations —
/// left rotation, right rotation, and child swap at a random node —
/// applied *in place* on the compiled SDD via the manager's edit API, so
/// each step costs work proportional to the touched vtree fragment rather
/// than a full recompilation. A step is kept when the SDD does not grow
/// and undone via its exact inverse otherwise.
///
/// Each edit runs under a private node cap: the manager's live node count
/// at pass start plus a small slack, read once (a fragment rewrite that
/// grows past it is no local move; it is aborted and rolled back — counted
/// in `aborted`). The manager's attached guard, if any, is the outer
/// budget: its deadline/cancellation is checked before every edit and
/// bounds every edit, and on interruption the best-so-far root is returned
/// with `interrupted` set. This is the one search: MinimizeVtree and the
/// manager's auto-minimize hook both run it.
SddInPlaceMinimizeResult MinimizeSddInPlace(SddManager& mgr, SddId root,
                                            size_t budget, uint64_t seed);

/// Compiles `cnf` once under `initial`, garbage-collects the manager down
/// to the root's reachable subgraph (edits rewrite every node at their
/// vtree label, and post-compile most of those are dead intermediates),
/// and then minimizes in place; the returned vtree is the incumbent's
/// (the live SDD stays canonical for it, so recompiling under the
/// returned vtree reproduces `size`).
MinimizeResult MinimizeVtree(const Cnf& cnf, const Vtree& initial,
                             size_t budget, uint64_t seed);

/// Resource-governed variant: the guard's deadline/cancellation is polled
/// between edits and inside every fragment rewrite. Returns best-so-far on
/// interruption; when even the initial compilation was interrupted,
/// size == 0 and the initial vtree is returned unevaluated.
MinimizeResult MinimizeVtree(const Cnf& cnf, const Vtree& initial,
                             size_t budget, uint64_t seed, Guard& guard);

}  // namespace tbc

#endif  // TBC_SDD_MINIMIZE_H_
