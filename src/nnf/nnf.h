#ifndef TBC_NNF_NNF_H_
#define TBC_NNF_NNF_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <vector>

#include "base/bigint.h"
#include "base/flat_table.h"
#include "base/levelize.h"
#include "base/span.h"
#include "logic/lit.h"

namespace tbc {

/// Node index within an NnfManager.
using NnfId = uint32_t;
constexpr NnfId kInvalidNnf = static_cast<NnfId>(-1);

/// A read-only NNF node table in CSR (struct-of-arrays) form, typically
/// pointing straight into a memory-mapped circuit store (src/store/).
/// NnfManager::FromMapped() adopts one as its base node store with zero
/// deserialization — queries then read the file's pages directly.
///
/// Contract (the store layer validates all of it before adoption; adopting
/// an unvalidated view is undefined behaviour):
///   - node 0 is ⊥ and node 1 is ⊤;
///   - kinds[n] is a valid Kind; payloads[n] is a literal code with
///     variable < num_vars for kLiteral nodes and 0 otherwise;
///   - child_begin has num_nodes+1 monotone entries with child_begin[0] == 0;
///   - every child id is smaller than its parent's id (the bottom-up
///     invariant Levelize() and TopologicalOrder() rely on);
///   - `owner` keeps the backing memory alive for the manager's lifetime.
struct MappedCircuit {
  const uint8_t* kinds = nullptr;
  const uint32_t* payloads = nullptr;
  const uint64_t* child_begin = nullptr;
  const uint32_t* children = nullptr;
  uint32_t num_nodes = 0;
  size_t num_vars = 0;
  std::shared_ptr<const void> owner;
};

/// Appends to `out` the variables present in bitset `big` but not in
/// `small` (missing words of `small` count as empty), in ascending order.
/// The "gap" of an or-gate input: the gate's variables the input does not
/// mention.
void AppendMissingVars(Span<const uint64_t> big, Span<const uint64_t> small,
                       std::vector<Var>& out);

/// Per-root evaluation plan of the gap-factor kernels in nnf/queries.cc
/// and nnf/max_sum.cc (counting, weighted counting, MPE, marginals,
/// sampling and max-sum): the root's level schedule plus the gap of every
/// or-gate input edge, flattened into CSR arrays, so a query reads gaps
/// without touching varsets or allocating.
struct GapPlan {
  LevelSchedule schedule;
  /// The or-gate at rank i owns edge slots [edge_begin[i], edge_begin[i+1]),
  /// one per child in child order; other gates own none.
  std::vector<uint32_t> edge_begin;
  /// Edge slot e's gap is gap_vars[gap_begin[e] .. gap_begin[e+1]), in
  /// ascending order.
  std::vector<uint32_t> gap_begin;
  std::vector<Var> gap_vars;
  /// Variables below the root, as a VarSet() bitset.
  std::vector<uint64_t> root_vars;
};

/// A store of circuits in Negation Normal Form (paper §3, Fig 5).
///
/// NNF circuits have and-gates, or-gates, literal inputs and the constants
/// ⊤/⊥; inverters may only feed from variables (i.e. negation appears only
/// at literals). NNF itself is not tractable; tractability comes from the
/// properties a circuit satisfies by construction:
///   - decomposability (DNNF): and-gate inputs share no variables — unlocks
///     linear-time SAT (class NP);
///   - + determinism (d-DNNF): or-gate inputs are pairwise inconsistent —
///     unlocks linear-time (weighted) model counting (class PP);
///   - smoothness: or-gate inputs mention the same variables (enforceable
///     by an explicit transform, kept as a test oracle in
///     tests/nnf_oracle.h; the queries in nnf/queries.h handle non-smooth
///     circuits by gap factors instead).
///
/// The manager hash-conses nodes, so circuits are DAGs with sharing. It is
/// the common target language: the top-down compiler emits Decision-DNNF
/// into it, and OBDD/SDD circuits export to it.
class NnfManager {
 public:
  enum class Kind : uint8_t { kFalse, kTrue, kLiteral, kAnd, kOr };

  NnfManager();

  /// Adopts a validated mapped node table as the base store (zero-copy: no
  /// pass over the nodes happens here). The returned manager answers every
  /// query directly over the mapped arrays; lazily built side caches
  /// (varsets, level schedules, count memos) live in anonymous memory as
  /// usual. New nodes can still be created — they append to an overlay
  /// whose ids continue past the mapped range. Overlay interning dedups
  /// only against other overlay nodes (the mapped region is deliberately
  /// never indexed — that would touch every page), so transformations over
  /// a mapped base may duplicate a few base nodes; semantics and
  /// determinism are unaffected.
  static std::unique_ptr<NnfManager> FromMapped(MappedCircuit base);

  /// Number of nodes in the mapped base (0 for ordinary managers).
  uint32_t mapped_nodes() const { return base_.num_nodes; }

  NnfId False() const { return 0; }
  NnfId True() const { return 1; }
  NnfId Literal(Lit l);

  /// And/Or over children. Constants are simplified away; single-child
  /// gates collapse; nested same-kind gates are flattened; children are
  /// deduplicated. Note: `Or(x, ~x)` is NOT simplified to true (it is a
  /// legitimate deterministic or-gate).
  NnfId And(Span<const NnfId> children) { return Gate(Kind::kAnd, children); }
  NnfId Or(Span<const NnfId> children) { return Gate(Kind::kOr, children); }
  NnfId And(std::initializer_list<NnfId> c) { return And({c.begin(), c.size()}); }
  NnfId Or(std::initializer_list<NnfId> c) { return Or({c.begin(), c.size()}); }
  NnfId And(NnfId a, NnfId b) { return And({a, b}); }
  NnfId Or(NnfId a, NnfId b) { return Or({a, b}); }

  /// Decision gate (x ∧ hi) ∨ (¬x ∧ lo): the OBDD multiplexer of Fig 11.
  NnfId Decision(Var v, NnfId hi, NnfId lo);

  Kind kind(NnfId n) const {
    return static_cast<Kind>(n < base_.num_nodes ? base_.kinds[n]
                                                 : kinds_[n - base_.num_nodes]);
  }
  Lit lit(NnfId n) const {
    return Lit::FromCode(n < base_.num_nodes ? base_.payloads[n]
                                             : payloads_[n - base_.num_nodes]);
  }
  /// Children of `n`. The view stays valid for the manager's lifetime for
  /// mapped-base nodes. For overlay nodes it points into the one child
  /// arena, which the next node creation may reallocate: copy first when
  /// interleaving reads with Literal/And/Or/Decision.
  Span<const NnfId> children(NnfId n) const {
    const uint64_t* begin = base_.child_begin;
    const NnfId* arena = base_.children;
    if (n >= base_.num_nodes) {
      n -= base_.num_nodes;
      begin = child_begin_.data();
      arena = children_.data();
    }
    return Span<const NnfId>(arena + begin[n],
                             static_cast<size_t>(begin[n + 1] - begin[n]));
  }

  size_t num_nodes() const { return base_.num_nodes + kinds_.size(); }
  /// Number of variables (max mentioned var + 1).
  size_t num_vars() const { return num_vars_; }

  /// Number of edges in the DAG reachable from `root` (the standard circuit
  /// size measure used by the paper, e.g. the 8.9M figure for Fig 22).
  size_t CircuitSize(NnfId root) const;
  /// Number of nodes reachable from `root`.
  size_t NumNodesBelow(NnfId root) const;

  /// Truth value of the subcircuit under a complete assignment.
  bool Evaluate(NnfId root, const Assignment& assignment) const;

  /// Circuit for root|lit (conditioning): occurrences of lit become ⊤ and
  /// of ~lit become ⊥, then gates simplify. Result is in this manager.
  NnfId Condition(NnfId root, Lit l);

  /// Rebuilds the circuit at `root` bottom-up with every literal node n
  /// replaced by `rewrite(n)`, a node of this manager; gates over the
  /// rewritten inputs simplify as And()/Or() do. Condition() and Forget()
  /// (nnf/queries.h) are this pass with two rewrites.
  NnfId RewriteLiterals(NnfId root, const std::function<NnfId(NnfId)>& rewrite);

  /// Set of variables in the subcircuit at `root`, as a bitset of
  /// ceil(num_vars/64) words. Sets live in one id-indexed arena: a call on
  /// an unfilled node fills the unfilled nodes of its subcircuit, and a
  /// grown num_vars empties it. Like children(), the view does not survive
  /// node creation.
  Span<const uint64_t> VarSet(NnfId root);
  /// Number of distinct variables below `root`.
  size_t NumVarsBelow(NnfId root);

  /// Nodes reachable from root, children before parents.
  std::vector<NnfId> TopologicalOrder(NnfId root) const;

  /// Topological level schedule of the subcircuit at `root`: leaves at
  /// level 0, each gate one level above its deepest input. The evaluation
  /// kernels in nnf/queries.cc sweep the schedule's order with dense
  /// rank-indexed value arrays; the gap-factor kernels read it from
  /// GapPlanCached(), the folds that ignore gaps (IsSatDnnf,
  /// MinCardinality, Evaluate) build it per call.
  LevelSchedule Schedule(NnfId root) const;

  /// Memoized unweighted model-count results (the classic BDD-package
  /// count cache): a circuit's count over a fixed variable universe is a
  /// pure function of the append-only store, so it never invalidates.
  /// Returns nullptr on a miss; ModelCountBounded() populates it. The
  /// first write happens on a query: warm single-threaded before sharing
  /// the manager across threads.
  const BigUint* FindModelCount(NnfId root, size_t num_vars) const {
    return count_cache_.Find(RootVarsKey(root, num_vars));
  }
  void StoreModelCount(NnfId root, size_t num_vars, const BigUint& count) {
    count_cache_.Insert(RootVarsKey(root, num_vars), count);
  }

  /// Cached GapPlan for `root`, built on the first call per root in one
  /// walk over the root's level schedule: each node's variable set is
  /// OR-ed into a rank-indexed scratch arena, freed when the plan is done,
  /// and every or-edge's gap is appended straight into the plan. It leaves
  /// the VarSet() arena untouched. The store is append-only and gaps are
  /// sets of variables, so a plan never goes stale; the reference stays
  /// valid for the manager's lifetime. It is all the state the WMC,
  /// marginal and MPE kernels read: after one call per root they perform
  /// no write to the manager. Same warm-before-sharing contract as
  /// FindModelCount().
  const GapPlan& GapPlanCached(NnfId root);

 private:
  NnfManager(MappedCircuit base, int);  // FromMapped; tag disambiguates

  // And/Or: the children simplified into gate_scratch_, then interned.
  NnfId Gate(Kind kind, Span<const NnfId> children);
  // Hash-conses a gate: appends it to the overlay only when it is new.
  NnfId Intern(Kind kind, Span<const NnfId> children);
  // Appends a node to the overlay's arrays.
  NnfId Append(Kind kind, uint32_t payload, Span<const NnfId> children);

  /// Mapped base node store; num_nodes == 0 for ordinary managers, in which
  /// case every accessor falls through to the overlay.
  MappedCircuit base_;
  /// The overlay, in the base's CSR layout and indexed by id -
  /// base_.num_nodes: node i's children are
  /// children_[child_begin_[i] .. child_begin_[i+1]).
  std::vector<uint8_t> kinds_;
  std::vector<uint32_t> payloads_;  // literal code for kLiteral, else 0
  std::vector<uint64_t> child_begin_ = {0};
  std::vector<NnfId> children_;
  /// Overlay literal node by literal code (kInvalidNnf until created);
  /// literals never enter the unique table, which holds gates only.
  std::vector<NnfId> literal_nodes_;
  UniqueTable index_;
  std::vector<NnfId> gate_scratch_;
  /// VarSet() arena: node n's set is varsets_[n * varset_words_ ..) once
  /// varset_filled_[n] is set.
  std::vector<uint64_t> varsets_;
  std::vector<uint8_t> varset_filled_;
  size_t varset_words_ = 0;
  static uint64_t RootVarsKey(NnfId root, size_t num_vars) {
    return (uint64_t{root} << 32) | static_cast<uint32_t>(num_vars);
  }

  FlatMap<NnfId, uint32_t> gap_plan_index_;  // root -> gap_plans_ slot
  std::vector<std::unique_ptr<GapPlan>> gap_plans_;
  FlatMap<uint64_t, BigUint> count_cache_;
  size_t num_vars_ = 0;
};

}  // namespace tbc

#endif  // TBC_NNF_NNF_H_
