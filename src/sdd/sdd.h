#ifndef TBC_SDD_SDD_H_
#define TBC_SDD_SDD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/bigint.h"
#include "base/flat_table.h"
#include "base/guard.h"
#include "base/hash.h"
#include "base/result.h"
#include "logic/lit.h"
#include "nnf/nnf.h"
#include "vtree/vtree.h"

namespace tbc {

/// Node index within an SddManager. 0 and 1 are the constants ⊥ and ⊤.
using SddId = uint32_t;
constexpr SddId kInvalidSdd = static_cast<SddId>(-1);

/// Outcome of one in-place vtree edit on a live SDD.
struct SddEditResult {
  bool applied = false;  /// the shape permitted the move and it committed
  bool aborted = false;  /// the guard tripped mid-edit; state rolled back
  size_t relabeled = 0;  /// nodes moved verbatim to the new fragment root
  size_t rewritten = 0;  /// nodes whose partitions were recomputed
  size_t reclaimed = 0;  /// nodes retired behind forwarding pointers
};

/// Policy for the manager's size-triggered auto-minimize hook.
enum class SddMinimizeMode : uint8_t { kOff, kAuto, kAggressive };

struct SddAutoMinimizeOptions {
  SddMinimizeMode mode = SddMinimizeMode::kOff;
  /// Fire when live nodes exceed growth_ratio × the live count after the
  /// previous pass (or min_live_nodes for the first pass).
  double growth_ratio = 2.0;
  size_t min_live_nodes = 512;
  /// In-place edits attempted per firing.
  size_t ops_per_pass = 96;

  static SddAutoMinimizeOptions ForMode(SddMinimizeMode mode) {
    SddAutoMinimizeOptions o;
    o.mode = mode;
    if (mode == SddMinimizeMode::kAggressive) {
      o.growth_ratio = 1.25;
      o.min_live_nodes = 128;
      o.ops_per_pass = 192;
    }
    return o;
  }
};

/// Sentential Decision Diagram package [Darwiche 2011] (paper §3, Fig 9).
///
/// An SDD is structured by a vtree. A decision node respecting internal
/// vtree node v is a set of elements {(p_i, s_i)}: the *primes* p_i are
/// SDDs over v's left variables forming a partition (mutually exclusive,
/// exhaustive, non-false — the strong determinism of Fig 9), and the *subs*
/// s_i are SDDs over v's right variables. The node denotes ∨_i (p_i ∧ s_i),
/// a multiplexer that passes exactly one sub.
///
/// The manager maintains *compressed* (distinct subs) and *trimmed* nodes
/// with hash consing, so SDDs are canonical for the vtree [Darwiche 2011]:
/// equivalent formulas get the identical node. Apply (∧/∨) runs in
/// O(|f|·|g|); negation and conditioning are linear. With a right-linear
/// vtree the manager builds exactly OBDDs (Fig 10c/11).
class SddManager {
 public:
  explicit SddManager(Vtree vtree);

  const Vtree& vtree() const { return vtree_; }
  size_t num_vars() const { return vtree_.num_vars(); }

  SddId False() const { return 0; }
  SddId True() const { return 1; }
  SddId LiteralNode(Lit l);

  /// f ∧ g and f ∨ g (polytime apply).
  SddId Conjoin(SddId f, SddId g);
  SddId Disjoin(SddId f, SddId g);
  /// ¬f (linear time).
  SddId Negate(SddId f);
  /// f | l (conditioning, linear time).
  SddId Condition(SddId f, Lit l);
  /// ∃v. f = f|v ∨ f|¬v.
  SddId Exists(SddId f, Var v) {
    return Disjoin(Condition(f, Pos(v)), Condition(f, Neg(v)));
  }

  bool IsConstant(SddId f) const { return f <= 1; }
  bool IsLiteral(SddId f) const {
    return !IsConstant(f) && nodes_[f].elements.empty();
  }
  bool IsDecision(SddId f) const {
    return !IsConstant(f) && !nodes_[f].elements.empty();
  }
  Lit literal(SddId f) const { return Lit::FromCode(nodes_[f].lit_code); }
  /// Vtree node the SDD node respects (leaf for literals; invalid for ⊤/⊥).
  VtreeId vtree_node(SddId f) const {
    return IsConstant(f) ? kInvalidVtree : nodes_[f].vtree;
  }
  /// Elements (prime, sub) of a decision node.
  const std::vector<std::pair<SddId, SddId>>& elements(SddId f) const {
    return nodes_[f].elements;
  }

  /// Visits every node reachable from `f` exactly once, children before
  /// parents, in the order a recursive descent would: each decision
  /// node's elements first to last, prime before sub — or, with `reverse`,
  /// last to first, sub before prime. Constants are visited too. Children
  /// are read through Resolve(), so the walk sees only live nodes after
  /// in-place edits. Iterative: the depth of the SDD costs heap, not
  /// thread stack.
  template <class Visit>
  void ForEachPostorder(SddId f, bool reverse, Visit&& visit) const;

  /// Truth value under a complete assignment.
  bool Evaluate(SddId f, const Assignment& assignment) const;
  /// SDD size: total number of elements over reachable decision nodes (the
  /// size measure reported throughout the paper).
  size_t Size(SddId f) const;
  /// Reachable decision-node count.
  size_t NumDecisionNodes(SddId f) const;

  /// Exact model count over all vtree variables.
  BigUint ModelCount(SddId f);
  /// Weighted model count over all vtree variables. The weight map must
  /// have exactly num_vars() variables (checked).
  double Wmc(SddId f, const WeightMap& weights);

  /// Exports as d-DNNF (structured decomposable, deterministic).
  NnfId ToNnf(SddId f, NnfManager& nnf) const;

  /// Total nodes ever created (statistics).
  size_t num_nodes() const { return nodes_.size(); }

  /// Pre-sizes node storage and the unique table for `n` expected nodes
  /// (e.g. an OBDD import of known size).
  void ReserveNodes(size_t n) {
    nodes_.reserve(n);
    unique_.Reserve(n);
  }

  /// Attaches a resource guard (borrowed, may be null to detach). A single
  /// Apply is worst-case O(|f|·|g|) with |f|,|g| themselves exponential in
  /// the input, so the check sits *inside* the apply recursion: when the
  /// guard trips (deadline, node budget, or cancellation) the manager sets
  /// its interrupted flag, the in-flight recursion unwinds in constant time
  /// per frame, and every subsequent operation returns ⊥ immediately until
  /// ClearInterrupt(). Interruption never corrupts the manager: the unique
  /// tables stay canonical; only results produced while interrupted are
  /// meaningless and must be discarded by the caller.
  void set_guard(Guard* guard) { guard_ = guard; }
  Guard* guard() const { return guard_; }
  bool interrupted() const { return interrupted_; }
  /// Why the manager was interrupted; Ok if it was not.
  const Status& interrupt_status() const { return interrupt_status_; }
  /// Re-arms an interrupted manager (existing nodes remain valid).
  void ClearInterrupt() {
    interrupted_ = false;
    interrupt_status_ = Status::Ok();
  }

  /// Builds a canonical decision node respecting vtree node v from raw
  /// elements (primes must partition ⊤ over v's left vars). Compresses
  /// equal subs, drops ⊥ primes, applies trimming rules. Exposed for the
  /// structured-space compilers; most callers want Conjoin/Disjoin.
  SddId MakeDecision(VtreeId v, std::vector<std::pair<SddId, SddId>> elements);

  /// ---- In-place dynamic vtree minimization [Choi & Darwiche 2013] ----
  ///
  /// Applies one vtree operation directly to the live SDD: the vtree is
  /// mutated and only the SDD nodes normalized for the edited fragment —
  /// node v and its rotated child — are touched (the textbook locality
  /// property). Nodes at the moving child are relabeled verbatim; nodes at
  /// v get their partitions recomputed for the new variable split; a node
  /// whose new canonical form trims to a smaller node is *reclaimed*: it
  /// is retired behind a forwarding pointer and references to it in
  /// ancestor-labeled nodes are rewritten. Apply-cache entries survive as
  /// function-level facts (node ids keep their function through every
  /// edit); per-edit epochs hide the handful of structurally hazardous
  /// entries in O(1) instead of scanning the cache (see OpCacheEntry).
  ///
  /// Guard semantics: partition recomputation charges the attached guard
  /// like any apply. When the guard trips mid-edit, the edit rolls back
  /// completely (vtree, unique table, node storage), `aborted` is set, and
  /// the manager is left interrupted — consistent but mid-operation
  /// results discarded, exactly like an interrupted Apply.
  ///
  /// External SddIds held across an edit must be re-homed with Resolve().
  SddEditResult RotateRightInPlace(VtreeId v);
  SddEditResult RotateLeftInPlace(VtreeId v);
  SddEditResult SwapChildrenInPlace(VtreeId v);

  /// Canonical survivor of `f` after in-place edits: chases forwarding
  /// pointers left by reclaimed nodes (identity for live ids).
  SddId Resolve(SddId f) const {
    while (!IsConstant(f) && nodes_[f].forward != kInvalidSdd) {
      f = nodes_[f].forward;
    }
    return f;
  }
  /// True when `f` was reclaimed by an in-place edit (use Resolve()).
  bool IsDead(SddId f) const {
    return !IsConstant(f) && nodes_[f].forward != kInvalidSdd;
  }
  /// Nodes currently alive (excludes the two constants and reclaimed
  /// nodes) — the size signal the auto-minimize trigger watches.
  size_t live_node_count() const { return nodes_.size() - 2 - dead_count_; }

  /// Size-triggered auto-minimize. Callers at safe points (no apply in
  /// flight) pass their current root, which must be their ONLY outstanding
  /// SddId: when the live node count has grown past the configured
  /// multiple of the last-minimized count, the manager garbage-collects
  /// down to the root (invalidating every other id — see
  /// GarbageCollect()), runs a bounded MinimizeSddInPlace pass, and
  /// returns the (possibly re-homed) root. A no-op when the mode is kOff,
  /// the manager is interrupted, or the trigger has not fired. When the
  /// attached guard stops the pass, the manager is left interrupted with
  /// the guard's status, like an interrupted Apply.
  SddId MaybeAutoMinimize(SddId root);
  void set_auto_minimize(const SddAutoMinimizeOptions& options) {
    auto_minimize_ = options;
  }
  const SddAutoMinimizeOptions& auto_minimize() const { return auto_minimize_; }
  /// Times the auto-minimize trigger fired on this manager.
  size_t auto_minimize_fires() const { return auto_minimize_fires_; }

  /// Rebuilds the manager to hold exactly the nodes reachable from `root`
  /// (plus the constants), dropping everything else: compilation
  /// intermediates, reclaimed husks, unique-table and op-cache ballast.
  /// Returns the re-homed root; EVERY other SddId into this manager is
  /// invalidated, so callers own the decision that `root` is the only
  /// live reference. Collecting before a minimization pass is what makes
  /// in-place edits local: an edit rewrites all nodes at its vtree label,
  /// and after a compile most of those are dead intermediates that a
  /// collected manager no longer carries.
  SddId GarbageCollect(SddId root);

  /// Process-wide default auto-minimize policy, copied by every manager at
  /// construction — how `kc_cli --sdd-minimize` reaches managers created
  /// deep inside the portfolio and compile paths without plumbing. Set once at startup (reads are
  /// unsynchronized by design, like other process-wide configuration).
  static void SetDefaultAutoMinimize(const SddAutoMinimizeOptions& options);
  static const SddAutoMinimizeOptions& DefaultAutoMinimize();

 private:
  struct Node {
    VtreeId vtree;
    uint32_t lit_code = static_cast<uint32_t>(-1);  // for literal nodes
    std::vector<std::pair<SddId, SddId>> elements;  // for decision nodes
    SddId negation = kInvalidSdd;                   // cached lazily
    SddId forward = kInvalidSdd;  // set = reclaimed; chase via Resolve()
  };
  enum class Op : uint8_t { kAnd, kOr };
  enum class EditKind : uint8_t { kRotateRight, kRotateLeft, kSwap };

  /// Canonicalized decision-node content before interning: either the
  /// trimmed replacement node, or the compressed+sorted element list.
  struct BuiltDecision {
    SddId trimmed = kInvalidSdd;
    std::vector<std::pair<SddId, SddId>> elements;
  };

  struct OpKey {
    uint64_t fg = 0;
    uint32_t tag = 0;
    bool operator==(const OpKey& o) const { return fg == o.fg && tag == o.tag; }
    // Found by ADL from LossyCache. Both fields go through a full splitmix64
    // mix; the old `fg ^ (tag * φ)` pre-mix left the low bits of fg nearly
    // intact, which clusters direct-mapped slots for consecutive node ids.
    friend uint64_t HashValue(const OpKey& k) {
      return HashU64(k.fg) ^ HashU64(static_cast<uint64_t>(k.tag) + 0x9e3779b97f4a7c15ull);
    }
  };

  /// Op-cache value: the result id plus the edit epoch it was minted in
  /// (0 = outside any in-place edit). Node ids are stable function
  /// handles, so entries stay semantically valid across vtree edits; the
  /// epoch exists for two structural hazards. During edit k, a pre-edit
  /// result can be one of the very nodes being rewritten (its stored
  /// partition is stale, and splicing it into a phase-1 partition would
  /// create ill-formed or cyclic element references) — only results
  /// living strictly below the edited vtree node, whose whole DAG closure
  /// the rewrite cannot touch, are reusable. And entries from an aborted
  /// edit are rejected forever (their result ids were truncated and may
  /// be reused). This replaces the old per-edit O(cache-capacity) EraseIf
  /// scans, which dominated minimization cost.
  struct OpCacheEntry {
    SddId result = kInvalidSdd;
    uint32_t epoch = 0;
  };
  /// The live id to serve for a cached entry in the current context, or
  /// kInvalidSdd if the entry is unusable here.
  SddId UsableCacheResult(const OpCacheEntry& e) const {
    if (e.epoch != 0 && !(in_edit_ && e.epoch == edit_epoch_) &&
        !edit_committed_[e.epoch - 1]) {
      return kInvalidSdd;  // minted during an edit that later aborted
    }
    if (!in_edit_ || e.epoch == edit_epoch_) return Resolve(e.result);
    // Pre-edit entry read mid-edit: usable only strictly below the edit.
    const SddId r = Resolve(e.result);
    if (IsConstant(r) || IsLiteral(r)) return r;
    const VtreeId w = nodes_[r].vtree;
    return w != edit_v_ && vtree_.IsAncestorOrSelf(edit_v_, w) ? r
                                                               : kInvalidSdd;
  }
  // Opens / closes the per-edit cache epoch bracketing Edit's mutations.
  void BeginEdit(VtreeId v) {
    edit_epoch_ = static_cast<uint32_t>(edit_committed_.size()) + 1;
    edit_v_ = v;
    in_edit_ = true;
  }
  void EndEdit(bool committed) {
    edit_committed_.push_back(committed);
    in_edit_ = false;
  }

  SddId Intern(Node node);
  SddId Apply(Op op, SddId f, SddId g);
  // Charges the guard and latches the interrupted flag; returns true when
  // the current operation should unwind.
  bool ChargeAndCheck(uint64_t new_nodes);
  // Expresses g (whose vtree is inside a subtree of v) as a decision node
  // normalized for v.
  std::vector<std::pair<SddId, SddId>> NormalizeTo(VtreeId v, SddId g);

  // Content hash used by the unique table (needed again on erase).
  uint64_t NodeHash(const Node& node) const;
  // Canonicalization shared by MakeDecision and the in-place rewrites:
  // drops ⊥ primes, compresses equal subs, applies the trimming rules and
  // sorts — everything except interning.
  BuiltDecision BuildDecision(std::vector<std::pair<SddId, SddId>> elements);
  // Live decision nodes currently labeled `v` (compacts the per-label
  // index as a side effect).
  std::vector<SddId> CollectAt(VtreeId v);
  // Moves a live decision node to label `v` (unique-table rehash included).
  void Relabel(SddId id, VtreeId v);
  // Shared implementation of the three in-place edits.
  SddEditResult Edit(EditKind kind, VtreeId v);
  // Rolls an interrupted edit back: strips nodes created since `mark`,
  // restores the relabeled nodes to `child` and undoes the vtree move.
  void AbortEdit(EditKind kind, VtreeId v, VtreeId child,
                 const std::vector<SddId>& relabeled, size_t mark);

  Vtree vtree_;
  std::vector<Node> nodes_;
  // Live decision-node ids per vtree label (lazily compacted): gives every
  // edit its stale-node set in output-sensitive time instead of a full
  // node-table scan.
  std::vector<std::vector<SddId>> nodes_at_;
  size_t dead_count_ = 0;
  UniqueTable unique_;
  LossyCache<OpKey, OpCacheEntry> op_cache_;
  // Edit epochs: one bit per completed in-place edit (committed / aborted),
  // indexed by epoch - 1. ~1 bit of growth per edit.
  std::vector<bool> edit_committed_;
  uint32_t edit_epoch_ = 0;
  VtreeId edit_v_ = kInvalidVtree;  // vtree node of the edit in progress
  bool in_edit_ = false;
  Guard* guard_ = nullptr;  // borrowed; null = unbounded
  bool interrupted_ = false;
  Status interrupt_status_;
  SddAutoMinimizeOptions auto_minimize_;
  size_t auto_minimize_fires_ = 0;
  size_t last_minimized_live_ = 0;
};

template <class Visit>
void SddManager::ForEachPostorder(SddId f, bool reverse, Visit&& visit) const {
  // 0 = unseen, 1 = expanded (its children are on the stack above it),
  // 2 = visited. A node may be pushed more than once; its first pop
  // expands it, and the pop that finds it expanded visits it.
  std::vector<uint8_t> state(nodes_.size(), 0);
  std::vector<SddId> stack = {Resolve(f)};
  const auto push = [&](SddId id) {
    if (state[id] != 0) return;  // seen live id: its node is not read
    id = Resolve(id);
    if (state[id] == 0) stack.push_back(id);
  };
  while (!stack.empty()) {
    const SddId g = stack.back();
    if (state[g] == 0) {
      state[g] = 1;
      // Pushed in the reverse of the order they are descended into.
      const auto& elements = nodes_[g].elements;
      if (reverse) {
        for (const auto& [p, s] : elements) {
          push(p);
          push(s);
        }
      } else {
        for (auto it = elements.rbegin(); it != elements.rend(); ++it) {
          push(it->second);
          push(it->first);
        }
      }
      continue;
    }
    stack.pop_back();
    if (state[g] == 1) {
      state[g] = 2;
      visit(g);
    }
  }
}

/// How a literal or a decision's elements can fail to form an SDD node at
/// vtree node v (paper §3, Fig 9), in a fixed order: the first five break
/// the vtree structure, the last three the partition.
enum class SddFault : uint8_t {
  kLiteralOffLeaf,       // a literal of variable i - 1 whose leaf is not v
  kOnLeaf,               // v is a leaf
  kNoElements,
  kPrimeNotLeft,         // element i's prime is not over left(v)
  kSubNotRight,          // element i's sub is not over right(v)
  kFalsePrime,           // element i's prime is ⊥
  kPrimesOverlap,        // the primes of elements i < j meet
  kPrimesNotExhaustive,  // the primes do not cover ⊤
};

struct SddFaultAt {
  SddFault fault;
  size_t i = 0;
  size_t j = 0;
};

/// A decision's element under check: the vtree nodes its prime and sub
/// claim to respect (kInvalidVtree for ⊥ and ⊤; a file's node claims the
/// vtree node the file puts it at), whether the prime is ⊥, and the prime
/// as a node of the manager that decides the partition, if there is one.
struct SddElementRef {
  VtreeId prime_vtree;
  VtreeId sub_vtree;
  bool false_prime;
  SddId prime = kInvalidSdd;
};

/// The one element check of an SDD decision, shared by ReadSdd and the
/// analyzers: every fault of `elements` as a decision at `v`, in order. A
/// leaf `v` or an empty list ends the check. Whether the primes partition
/// ⊤ is decided exactly by apply on `partition`'s canonical nodes, which
/// may add nodes to it; a null `partition` skips that question.
std::vector<SddFaultAt> CheckSddElements(const Vtree& vtree, VtreeId v,
                                         const std::vector<SddElementRef>& elements,
                                         SddManager* partition);

/// The literal counterpart of CheckSddElements: a literal node at `v` is
/// an SDD node only on its variable's leaf. Empty or one fault.
std::vector<SddFaultAt> CheckSddLiteral(const Vtree& vtree, VtreeId v, Lit lit);

/// A fault's fixed text ("false prime", ...), and the elements it names
/// ("variable 3", "element 2", "elements 0 and 1"; empty for the
/// decision as a whole).
const char* SddFaultMessage(SddFault fault);
std::string SddFaultWitness(const SddFaultAt& fault);

}  // namespace tbc

#endif  // TBC_SDD_SDD_H_
