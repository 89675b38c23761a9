#ifndef TBC_COMPILER_SUBPROBLEM_H_
#define TBC_COMPILER_SUBPROBLEM_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/flat_table.h"
#include "base/guard.h"
#include "base/observability.h"
#include "base/result.h"
#include "compiler/ddnnf_compiler.h"
#include "logic/cnf.h"
#include "logic/lit.h"

namespace tbc::compiler_internal {

/// A subproblem of exhaustive DPLL: a set of reduced clauses (no satisfied
/// clauses, no false literals). The Decision-DNNF compiler and the model
/// counters search over it with one driver, Dpll below: the paper's point
/// that a model counter's trace *is* a d-DNNF [Huang & Darwiche 2007].
///
/// Stored flat: every clause's literals back to back in `lits`, and
/// `ends[i]` one past clause i's last literal. Each DPLL node rewrites
/// these buffers in place or into a per-depth buffer it reuses (Frame
/// below), so once the buffers have grown to the largest subproblem the
/// search allocates nothing per clause.
struct ClauseSet {
  std::vector<Lit> lits;
  std::vector<uint32_t> ends;

  size_t size() const { return ends.size(); }
  bool empty() const { return ends.empty(); }
  uint32_t begin_of(size_t i) const { return i == 0 ? 0 : ends[i - 1]; }
  std::span<const Lit> clause(size_t i) const {
    const uint32_t b = begin_of(i);
    return {lits.data() + b, ends[i] - b};
  }
  void clear() {
    lits.clear();
    ends.clear();
  }
  void Append(std::span<const Lit> c) {
    lits.insert(lits.end(), c.begin(), c.end());
    ends.push_back(static_cast<uint32_t>(lits.size()));
  }
};

/// Clauses [first, last) of a ClauseSet: one component of a split.
struct ClauseRange {
  const ClauseSet* set;
  uint32_t first;
  uint32_t last;
};

inline ClauseRange AllOf(const ClauseSet& set) {
  return {&set, 0, static_cast<uint32_t>(set.size())};
}

/// Copies the CNF's clauses into `out` and sorts each clause. Every
/// transform below only deletes literals or moves whole clauses, so this
/// per-clause sortedness holds down the entire DPLL recursion and
/// Canonicalize never needs to re-establish it.
void LoadCnf(const Cnf& cnf, ClauseSet* out);

/// Canonicalize's sort entry: a clause index under its first two literal
/// codes, which decide most comparisons without touching the literals.
struct SortEntry {
  uint64_t prefix;
  uint32_t clause;
};

/// Writes the canonical form of `in` to `out`: its clauses (each already
/// sorted) in lexicographic order, duplicates dropped. `order` is scratch.
/// Because every transform is an order-preserving filter and the canonical
/// order depends only on the clause contents, the search visits exactly
/// the subproblems a vector-of-clauses implementation would.
///
/// With a non-null `key`, the same output loop also writes the canonical
/// clauses' component-cache key there (reused buffer) and returns its
/// Fingerprint; with a null one it returns 0.
///
/// The key encoding is length-prefixed — literal count, then the literal
/// codes, one uint32 each — which is injective for every clause set: a
/// decoder always knows where each clause ends. A sentinel-terminated
/// encoding is not, because every uint32 is a valid Lit code (0xFFFFFFFF
/// is the negative literal of var 2^31 - 1), so clause sets containing
/// that literal could collide and the component cache would serve a wrong
/// count. Pinned by CacheKeyIsInjectiveOnSentinelLiteral in compiler_test.
uint64_t Canonicalize(ClauseRange in, std::vector<SortEntry>* order,
                      ClauseSet* out, std::vector<uint32_t>* key);

/// 64-bit fingerprint of a cache key. ComponentCache compares the full key
/// on every fingerprint match, so the width only sets how often that
/// comparison fails, never whether an answer is right.
uint64_t Fingerprint(std::span<const uint32_t> key);

/// Component cache: canonical clause keys -> V. Each key is stored once,
/// in an append-only arena, and indexed by its fingerprint; a probe
/// hashes nothing itself and copies nothing, and every fingerprint match
/// is confirmed by comparing the full key, so two components that share a
/// fingerprint never alias.
template <typename V>
class ComponentCache {
 public:
  /// The value stored under `key`, or nullptr. `fingerprint` is the one
  /// the key was inserted under (Fingerprint(key) in the driver). The
  /// pointer is valid until the next Insert.
  const V* Find(std::span<const uint32_t> key, uint64_t fingerprint) const {
    const uint32_t id = index_.Find(fingerprint, [&](uint32_t candidate) {
      const std::span<const uint32_t> stored = KeyOf(candidate);
      return std::equal(stored.begin(), stored.end(), key.begin(), key.end());
    });
    return id == UniqueTable::kNpos ? nullptr : &values_[id];
  }

  /// Stores `value` under `key`, which must not be present yet.
  void Insert(std::span<const uint32_t> key, uint64_t fingerprint, V value) {
    const uint32_t id = static_cast<uint32_t>(values_.size());
    arena_.insert(arena_.end(), key.begin(), key.end());
    key_ends_.push_back(arena_.size());
    values_.push_back(std::move(value));
    index_.Insert(fingerprint, id);
  }

  size_t size() const { return values_.size(); }

 private:
  std::span<const uint32_t> KeyOf(uint32_t id) const {
    const size_t b = id == 0 ? 0 : key_ends_[id - 1];
    return {arena_.data() + b, key_ends_[id] - b};
  }

  UniqueTable index_;             // fingerprint -> entry id
  std::vector<uint32_t> arena_;   // every key, back to back
  std::vector<size_t> key_ends_;  // entry id -> one past its key in arena_
  std::vector<V> values_;         // entry id -> value
};

/// A map from the variables of one CNF to uint32 values: one {stamp,
/// value} slot per variable, sized once from Cnf::num_vars() (Cnf's
/// AddClause keeps every literal's variable below it), so a probe is one
/// load with no bounds check or growth. Clear() is O(1): it bumps the
/// epoch instead of touching the slots.
class VarMap {
 public:
  /// Sizes the map for variables [0, num_vars) and empties it.
  void Resize(size_t num_vars) {
    slots_.assign(num_vars, Slot{});
    epoch_ = 1;
  }
  bool Has(Var v) const {
    TBC_DCHECK(v < slots_.size());
    return slots_[v].stamp == epoch_;
  }
  /// Value of `v`; only meaningful when Has(v).
  uint32_t Get(Var v) const { return slots_[v].value; }
  void Set(Var v, uint32_t value) {
    TBC_DCHECK(v < slots_.size());
    slots_[v] = {epoch_, value};
  }
  void Clear() {
    if (++epoch_ == 0) {
      // Epoch wrap: stale stamps could alias. Reset once every 2^32 clears.
      std::fill(slots_.begin(), slots_.end(), Slot{});
      epoch_ = 1;
    }
  }

 private:
  struct Slot {
    uint32_t stamp = 0;
    uint32_t value = 0;
  };
  std::vector<Slot> slots_;
  uint32_t epoch_ = 1;
};

enum class BcpOutcome { kOk, kConflict };

/// Exhaustive unit propagation, in place: consumes unit clauses into
/// `implied` and leaves the reduced rest in `clauses`, in their original
/// order. After a conflict `clauses` holds garbage. `value` is scratch.
///
/// The units come out in the order of repeated full passes, each pass
/// assigning a unit as soon as it finds it. A pass after the first scans
/// only the clauses before the previous pass's last unit, and goes on to
/// the end only if it finds another unit there: the clauses after that
/// unit were already reduced under the same assignment, so they move down
/// unread.
BcpOutcome Propagate(ClauseSet* clauses, std::vector<Lit>* implied,
                     VarMap& value);

/// The branch of `clauses` that assumes `l`, in one step: the same
/// `out` and `implied` as ConditionClauses(clauses, l, out) followed by
/// Propagate(out, implied), with the first propagation pass reading
/// `clauses` directly. `l` itself is not reported as implied.
BcpOutcome PropagateAssuming(const ClauseSet& clauses, Lit l, ClauseSet* out,
                             std::vector<Lit>* implied, VarMap& value);

/// SplitComponents' scratch: union-find over variables, and the counting
/// sort's per-clause and per-component cursors.
struct SplitScratch {
  VarMap parent;                      // var -> union-find parent var
  VarMap comp_index;                  // root var -> component index
  std::vector<uint32_t> clause_comp;  // clause -> component
  std::vector<uint32_t> lit_pos;      // component -> literal cursor
  std::vector<uint32_t> clause_pos;   // component -> clause cursor
};

/// Groups clauses into variable-connected components (union-find on vars),
/// keeping clause order within each component and ordering components by
/// their first clause. Returns the set that holds the groups — `clauses`
/// itself when there is at most one component (the common case, which
/// copies nothing and is decided by the union pass alone), else `scratch`
/// — and sets `comp_ends[k]` one past component k's last clause index in
/// it.
const ClauseSet& SplitComponents(const ClauseSet& clauses, ClauseSet* scratch,
                                 std::vector<uint32_t>* comp_ends,
                                 SplitScratch& split);

/// Component k of a split: its clauses in `groups`, as SplitComponents
/// returned and bounded them.
inline ClauseRange ComponentOf(const ClauseSet& groups,
                               const std::vector<uint32_t>& comp_ends,
                               size_t k) {
  return {&groups, k == 0 ? 0 : comp_ends[k - 1], comp_ends[k]};
}

/// Most frequently occurring variable (ties broken by smaller index so the
/// search is deterministic), tracked while counting. `occurrences` is
/// scratch.
Var PickBranchVar(const ClauseSet& clauses, VarMap& occurrences);

/// Writes `clauses` conditioned on a literal (no propagation) to `out`.
/// Only the algebras that weigh dropped variables condition separately;
/// the others branch through PropagateAssuming.
void ConditionClauses(const ClauseSet& clauses, Lit l, ClauseSet* out);

/// The buffers one level of the DPLL recursion reuses: the work set it
/// splits into components, and the canonical component it decides on
/// together with that component's cache key and the propagated branch
/// handed to the next level. `work` and `dropped` serve only the algebras
/// that weigh dropped variables (Dpll below).
struct Frame {
  ClauseSet work;                   // the canonicalized subproblem
  std::vector<Lit> implied;
  ClauseSet split;                  // SplitComponents scratch
  std::vector<uint32_t> comp_ends;  // component boundaries in the split
  std::vector<SortEntry> order;     // Canonicalize scratch
  ClauseSet canonical;              // the component being decided
  std::vector<uint32_t> key;        // its cache key
  ClauseSet branch;                 // `canonical` under a decision
  std::vector<Var> dropped;         // variables the last step dropped
};

/// One Frame per recursion depth, created on first use and reused by every
/// later node at that depth. A deque keeps outer frames in place while
/// deeper ones are added.
class FrameStack {
 public:
  Frame& at(size_t depth) {
    while (frames_.size() <= depth) frames_.emplace_back();
    return frames_[depth];
  }

 private:
  std::deque<Frame> frames_;
};

/// An algebra's observability names; a null `splits` is not counted.
struct SearchCounters {
  const char* decisions;
  const char* cache_hits;
  const char* cache_misses;
  const char* splits;
};

/// The one exhaustive-DPLL search: propagate, split into components,
/// canonicalize (writing the cache key in the same loop), probe the
/// component cache, branch. A branch is one pass that conditions the
/// canonical component on the decision literal and propagates
/// (PropagateAssuming). The search owns its per-variable scratch, sized
/// once per Run from the CNF's variable count. It runs in a result
/// algebra, since count, WMC and circuit construction are one sum-product
/// evaluation over the same decision structure (PAPERS.md, arXiv
/// 2202.02942); so the compiler and the counters make the same decisions
/// and cache hits.
///
/// An Algebra has types Value (cached per component), Product (one
/// conjunction's accumulator), Sink and Decision (trace records), the
/// SearchCounters kCounters, and Top(), Zero(sink) for a BCP conflict,
/// One(), Implied(product, lit), Times(product, value, sink),
/// Finish(product, sink), Hi(decision), Lo(decision) and
/// Decide(decision, var, hi, lo). An algebra with kFreeVars weighs the
/// variables that drop out of a subproblem: Free(value, dropped) and
/// Assume(lit, sub, dropped) for a branch, with Product = Value. Its
/// branches are conditioned separately (ConditionClauses) and
/// canonicalized before propagation, which fixes the order the factors
/// multiply in. All of this is resolved at compile time, so the
/// circuit's search pays nothing for the counters.
template <typename Algebra>
class Dpll {
 public:
  using Value = typename Algebra::Value;

  /// Counts decisions, cache hits and splits into `stats`; each decision
  /// charges `guard` one decision and one node.
  Dpll(Algebra& algebra, DdnnfOptions options, DdnnfStats& stats,
       Guard& guard)
      : algebra_(algebra), options_(options), stats_(stats), guard_(guard) {}

  /// Evaluates `cnf`; with kFreeVars its unmentioned variables too.
  Result<Value> Run(const Cnf& cnf) {
    value_.Resize(cnf.num_vars());
    occurrences_.Resize(cnf.num_vars());
    split_.parent.Resize(cnf.num_vars());
    split_.comp_index.Resize(cnf.num_vars());
    ClauseSet clauses;
    LoadCnf(cnf, &clauses);
    if constexpr (!Algebra::kFreeVars) {
      if (Propagate(&clauses, &frames_.at(0).implied, value_) ==
          BcpOutcome::kConflict) {
        return algebra_.Zero(algebra_.Top());
      }
      return Propagated(clauses, 0, algebra_.Top());
    } else {
      vars_.Resize(cnf.num_vars());
      marked_.clear();
      for (Var v = 0; v < cnf.num_vars(); ++v) Mark(v);
      std::vector<Var> unmentioned;
      Dropped({}, clauses, &unmentioned);
      TBC_ASSIGN_OR_RETURN(Value value, Clauses(clauses, 0, algebra_.Top()));
      algebra_.Free(value, unmentioned);
      return value;
    }
  }

 private:
  // kFreeVars only: evaluates the conditioned `input` at recursion depth
  // `depth` into `sink`. It canonicalizes before it propagates, which
  // fixes the order the factors multiply in.
  Result<Value> Clauses(ClauseSet& input, size_t depth,
                        typename Algebra::Sink sink) {
    Frame& frame = frames_.at(depth);
    Canonicalize(AllOf(input), &frame.order, &frame.work, nullptr);
    MarkVars(frame.work);
    if (Propagate(&frame.work, &frame.implied, value_) ==
        BcpOutcome::kConflict) {
      return algebra_.Zero(sink);
    }
    return Propagated(frame.work, depth, sink);
  }

  // Evaluates the propagated `clauses` at recursion depth `depth`, whose
  // Frame holds the units propagation implied, into `sink`. BCP closure
  // and the component partition ignore clause order and duplicates, and
  // Component canonicalizes before keying the cache, so without kFreeVars
  // `clauses` need not be canonical.
  Result<Value> Propagated(const ClauseSet& clauses, size_t depth,
                           typename Algebra::Sink sink) {
    Frame& frame = frames_.at(depth);
    typename Algebra::Product product = algebra_.One();
    for (const Lit l : frame.implied) algebra_.Implied(product, l);
    if constexpr (Algebra::kFreeVars) {
      // Variables that vanished with satisfied clauses are free.
      algebra_.Free(product, Dropped(frame.implied, clauses, &frame.dropped));
    }
    if (!clauses.empty()) {
      const ClauseSet* groups = &clauses;
      if (options_.use_components) {
        groups =
            &SplitComponents(clauses, &frame.split, &frame.comp_ends, split_);
        if (frame.comp_ends.size() > 1) {
          ++stats_.components_split;
          if constexpr (Algebra::kCounters.splits != nullptr) {
            TBC_COUNT(Algebra::kCounters.splits);
          }
        }
      } else {
        frame.comp_ends.assign(1, static_cast<uint32_t>(clauses.size()));
      }
      for (size_t k = 0; k < frame.comp_ends.size(); ++k) {
        TBC_ASSIGN_OR_RETURN(
            const Value sub,
            Component(ComponentOf(*groups, frame.comp_ends, k), depth));
        algebra_.Times(product, sub, sink);
      }
    }
    return algebra_.Finish(product, sink);
  }

  // Evaluates a single component (no unit clauses after propagation).
  Result<Value> Component(ClauseRange component, size_t depth) {
    Frame& frame = frames_.at(depth);
    uint64_t fingerprint = 0;
    if (options_.use_cache) {
      fingerprint = Canonicalize(component, &frame.order, &frame.canonical,
                                 &frame.key);
      if (const Value* hit = cache_.Find(frame.key, fingerprint)) {
        ++stats_.cache_hits;
        TBC_COUNT(Algebra::kCounters.cache_hits);
        return *hit;
      }
      TBC_COUNT(Algebra::kCounters.cache_misses);
    } else {
      Canonicalize(component, &frame.order, &frame.canonical, nullptr);
    }
    ++stats_.decisions;
    TBC_COUNT(Algebra::kCounters.decisions);
    // One decision = one decision node or cache entry: charge both budgets
    // here, at the head of the exponential recursion, so a trip surfaces
    // within one decision's work.
    TBC_RETURN_IF_ERROR(guard_.ChargeDecision());
    TBC_RETURN_IF_ERROR(guard_.ChargeNodes(1));
    const Var v = PickBranchVar(frame.canonical, occurrences_);
    TBC_DCHECK(v != kInvalidVar);
    typename Algebra::Decision decision{};
    TBC_ASSIGN_OR_RETURN(const Value hi,
                         Branch(Pos(v), depth, algebra_.Hi(decision)));
    TBC_ASSIGN_OR_RETURN(const Value lo,
                         Branch(Neg(v), depth, algebra_.Lo(decision)));
    Value result = algebra_.Decide(decision, v, hi, lo);
    if (options_.use_cache) cache_.Insert(frame.key, fingerprint, result);
    return result;
  }

  // The branch assuming `l` of the decision at `depth`. Both branches are
  // built in one per-depth buffer: the high branch is fully evaluated
  // before the low one is built.
  Result<Value> Branch(Lit l, size_t depth, typename Algebra::Sink sink) {
    Frame& frame = frames_.at(depth);
    if constexpr (!Algebra::kFreeVars) {
      // One pass conditions and propagates; the next level's units land
      // in its own Frame.
      if (PropagateAssuming(frame.canonical, l, &frame.branch,
                            &frames_.at(depth + 1).implied,
                            value_) == BcpOutcome::kConflict) {
        return algebra_.Zero(sink);
      }
      return Propagated(frame.branch, depth + 1, sink);
    } else {
      ConditionClauses(frame.canonical, l, &frame.branch);
      // Component variables absent from the branch are free; collect them
      // before the recursion reuses the marks.
      MarkVars(frame.canonical);
      Dropped({&l, 1}, frame.branch, &frame.dropped);
      TBC_ASSIGN_OR_RETURN(Value sub, Clauses(frame.branch, depth + 1, sink));
      return algebra_.Assume(l, std::move(sub), frame.dropped);
    }
  }

  void Mark(Var v) {
    if (!vars_.Has(v)) marked_.push_back(v);
    vars_.Set(v, 1);
  }

  void MarkVars(const ClauseSet& before) {
    vars_.Clear();
    marked_.clear();
    for (const Lit l : before.lits) Mark(l.var());
  }

  // The marked variables in neither `fixed` nor `after`, in marking order.
  std::span<const Var> Dropped(std::span<const Lit> fixed,
                               const ClauseSet& after, std::vector<Var>* out) {
    for (const Lit l : fixed) vars_.Set(l.var(), 0);
    for (const Lit l : after.lits) vars_.Set(l.var(), 0);
    out->clear();
    for (const Var v : marked_) {
      if (vars_.Get(v) != 0) out->push_back(v);
    }
    return *out;
  }

  Algebra& algebra_;
  const DdnnfOptions options_;
  DdnnfStats& stats_;
  Guard& guard_;
  FrameStack frames_;
  ComponentCache<Value> cache_;
  // Per-variable scratch, sized by Run; each is used within one call and
  // never held across recursion.
  VarMap value_;              // propagation's assignment
  VarMap occurrences_;        // PickBranchVar's counts
  SplitScratch split_;        // SplitComponents' union-find and cursors
  VarMap vars_;               // kFreeVars: MarkVars/Dropped marks
  std::vector<Var> marked_;   // the marked variables, in marking order
};

}  // namespace tbc::compiler_internal

#endif  // TBC_COMPILER_SUBPROBLEM_H_
