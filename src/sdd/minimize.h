#ifndef TBC_SDD_MINIMIZE_H_
#define TBC_SDD_MINIMIZE_H_

#include <cstdint>
#include <optional>

#include "base/guard.h"
#include "base/random.h"
#include "logic/cnf.h"
#include "sdd/sdd.h"
#include "vtree/vtree.h"

/// Feature probe: this revision applies vtree operations in place on the
/// live SDD (benches and tools built against older revisions test for it).
#define TBC_SDD_HAS_INPLACE_MINIMIZE 1

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
/// Each edit runs under a private node cap derived from the best size so
/// far (a fragment rewrite that grows past the cap can never be accepted,
/// so it is aborted and rolled back — counted in `aborted`). The manager's
/// attached guard, if any, is the outer budget: its deadline/cancellation
/// is polled between edits and bounds every edit, and on interruption the
/// best-so-far root is returned with `interrupted` set.
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

/// Recompilation-based search over the same neighborhood: every candidate
/// vtree is evaluated by compiling the CNF from scratch. Kept as the
/// cross-check oracle for the in-place path — tests and
/// bench_vtree_shapes compare the two — and as the reference
/// implementation of the search itself.
MinimizeResult MinimizeVtreeByRecompile(const Cnf& cnf, const Vtree& initial,
                                        size_t budget, uint64_t seed,
                                        Guard& guard);

/// One vtree operation applied functionally (returns the rotated copy), or
/// std::nullopt when the shape does not permit the move — rotating at a
/// leaf, or rotating a node whose relevant child is a leaf. (These used to
/// return the *unchanged* vtree on a shape mismatch, which silently turned
/// an inapplicable move into an expensive no-op candidate.)
std::optional<Vtree> RotateRight(const Vtree& vtree, VtreeId at);
std::optional<Vtree> RotateLeft(const Vtree& vtree, VtreeId at);
std::optional<Vtree> SwapChildren(const Vtree& vtree, VtreeId at);

}  // namespace tbc

#endif  // TBC_SDD_MINIMIZE_H_
