#ifndef TBC_COMPILER_SUBPROBLEM_H_
#define TBC_COMPILER_SUBPROBLEM_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "base/flat_table.h"
#include "base/guard.h"
#include "base/observability.h"
#include "base/result.h"
#include "compiler/ddnnf_compiler.h"
#include "logic/cnf.h"
#include "logic/lit.h"

namespace tbc::compiler_internal {

/// Exhaustive DPLL over one static clause database, shared by the
/// Decision-DNNF compiler and the model counters (Dpll below): the paper's
/// point that a model counter's trace *is* a d-DNNF [Huang & Darwiche
/// 2007]. As in c2d and sharpSAT, the CNF is loaded once and never copied:
/// the search moves an assignment trail over it, and a subproblem is a
/// list of variable and clause ids.

/// The CNF's clauses, loaded once per search: each clause's literals,
/// sorted, back to back in one arena. A binary clause (two distinct
/// variables) is also filed once under each of its literals as an
/// implication: for `l ∨ m`, `m` under `l`. Every other clause is listed,
/// by id in increasing order, under each literal it contains. Nothing here
/// changes while the search runs.
class ClauseDb {
 public:
  void Load(const Cnf& cnf);

  size_t num_vars() const { return num_vars_; }
  uint32_t num_clauses() const {
    return static_cast<uint32_t>(begins_.size() - 1);
  }
  std::span<const Lit> clause(uint32_t c) const {
    return {lits_.data() + begins_[c], lits_.data() + begins_[c + 1]};
  }
  /// The other literal of each binary clause that contains `l`, in clause
  /// order: each must be true once `l` is false.
  std::span<const Lit> implications(Lit l) const {
    return {imp_.data() + imp_begins_[l.code()],
            imp_.data() + imp_begins_[l.code() + 1]};
  }
  /// The ids of the clauses other than binary ones that contain `l`.
  std::span<const uint32_t> occurrences(Lit l) const {
    return {occ_.data() + occ_begins_[l.code()],
            occ_.data() + occ_begins_[l.code() + 1]};
  }

 private:
  static bool Binary(std::span<const Lit> c) {
    return c.size() == 2 && c[0].var() != c[1].var();
  }

  size_t num_vars_ = 0;
  std::vector<Lit> lits_;
  std::vector<uint32_t> begins_;      // clause id -> its first literal
  std::vector<uint32_t> imp_begins_;  // literal code -> its first partner
  std::vector<Lit> imp_;              // binary partners, grouped by literal
  std::vector<uint32_t> occ_begins_;  // literal code -> its first entry
  std::vector<uint32_t> occ_;         // clause ids, grouped by literal
};

/// The search's assignment over a ClauseDb: a value per literal, and the
/// trail of assigned literals in assignment order. Assume pushes a
/// literal and the units it implies; Undo pops the trail back to a mark.
/// Unit propagation visits only the implication and occurrence lists of
/// the literals it falsifies, so its cost does not grow with the clauses
/// it leaves alone.
class Trail {
 public:
  /// Sizes the trail for `db`'s variables, all unassigned.
  void Reset(const ClauseDb& db);

  static constexpr uint8_t kUnassigned = 0;
  static constexpr uint8_t kTrue = 1;
  static constexpr uint8_t kFalse = 2;

  /// kUnassigned, kTrue or kFalse.
  uint8_t value(Lit l) const { return value_[l.code()]; }
  bool IsTrue(Lit l) const { return value_[l.code()] == kTrue; }
  bool IsFalse(Lit l) const { return value_[l.code()] == kFalse; }
  bool Assigned(Var v) const { return value_[Pos(v).code()] != kUnassigned; }
  /// The literal of the assigned variable `v` that is true.
  Lit TrueLit(Var v) const { return IsTrue(Pos(v)) ? Pos(v) : Neg(v); }
  size_t size() const { return lits_.size(); }

  /// Assigns every unit clause of the database and propagates. False on a
  /// conflict, an empty clause included.
  bool AssumeUnits();
  /// Assigns the unassigned literal `l` and propagates. False on a
  /// conflict; the trail then keeps the partial propagation for Undo.
  bool Assume(Lit l);
  /// Unassigns every literal after the first `mark` of the trail.
  void Undo(size_t mark);

 private:
  void Push(Lit l) {
    value_[l.code()] = kTrue;
    value_[(~l).code()] = kFalse;
    lits_.push_back(l);
  }
  // Propagates the literals from trail position `head` on.
  bool Bcp(size_t head);

  const ClauseDb* db_ = nullptr;
  std::vector<uint8_t> value_;  // literal code -> kUnassigned/kTrue/kFalse
  std::vector<Lit> lits_;
};

/// The components of the search, on one stack of uint32 words. A
/// component is `[nv, nc, var ids..., clause ids..., branch var]`, both id
/// lists increasing. Its first 2 + nv + nc words are its cache key. The
/// key is sound: a live clause's reduced form is its original literals
/// restricted to the component's (unassigned) variables, so equal keys
/// mean equal reduced clause sets over equal variables. The counts make
/// the key injective. The branch variable is the component's most
/// frequent variable over its clauses, ties broken by the smaller id, so
/// the search is deterministic; it is a function of the key.
class ComponentStack {
 public:
  /// Empties the stack and pushes the root: every variable and every
  /// clause of `db`, at offset 0.
  void Reset(const ClauseDb& db);

  uint32_t size() const { return top_; }
  /// Drops every component at or above offset `size`.
  void PopTo(uint32_t size) { top_ = size; }
  /// Moves the components from offset `from` to the top down to offset
  /// `to`, dropping the words between.
  void MoveDown(uint32_t from, uint32_t to) {
    std::copy(words_.begin() + from, words_.begin() + top_,
              words_.begin() + to);
    top_ -= from - to;
  }

  std::span<const uint32_t> Key(uint32_t at) const {
    return {words_.data() + at, 2 + words_[at] + words_[at + 1]};
  }
  Var BranchVar(uint32_t at) const {
    return words_[at + 2 + words_[at] + words_[at + 1]];
  }
  std::span<const uint32_t> VarsOf(uint32_t at) const {
    return {words_.data() + at + 2, words_[at]};
  }
  std::span<const uint32_t> ClauseIdsOf(uint32_t at) const {
    return {words_.data() + at + 2 + words_[at], words_[at + 1]};
  }
  /// Offset one past the component at `at`.
  uint32_t End(uint32_t at) const {
    return at + 3 + words_[at] + words_[at + 1];
  }

  /// Pushes the sub-components of the component at `parent` under the
  /// trail's assignment: the variable-connected groups of its live
  /// (unsatisfied) clauses, or one group of them all when `decompose` is
  /// false. They come out in order of their smallest variable, each with
  /// sorted id lists, from one pass over the parent's clauses (live test,
  /// in one step for a two-literal clause, union-find and occurrence
  /// counts) and one ordered pass over its variables and then its live
  /// clauses, so nothing is sorted. Points `rest`, until the next Split,
  /// at the parent's variables that no sub-component holds, in increasing
  /// order: assigned ones, and unassigned ones in no live clause (free).
  /// Returns the number of sub-components.
  uint32_t Split(uint32_t parent, const Trail& trail, bool decompose,
                 std::span<const Var>* rest);

 private:
  // A variable's union-find slot, with its occurrences in live clauses.
  // At a root, `vars` and `clauses` count the group's ids until the group
  // is placed on the stack, and then serve as its write cursors there;
  // `best` is then the group's branch variable so far.
  struct Slot {
    uint32_t stamp = 0;
    Var parent = 0;
    uint32_t vars = 0;
    uint32_t clauses = 0;
    uint32_t count = 0;
    Var best = kInvalidVar;
    bool placed = false;
  };
  // A live clause of the split, and one of its unassigned variables.
  struct Live {
    uint32_t clause;
    Var var;
  };

  bool Has(Var v) const { return slots_[v].stamp == epoch_; }
  // Starts `v`'s slot under the root `root`, or as a new group's root.
  void Add(Var v, Var root);
  Var Find(Var v);
  Var Unite(Var a, Var b);
  // The union step of a live clause, once per unassigned variable `v`:
  // counts the occurrence and unites `v`'s group with the clause's group
  // so far, rooted at `*root` (kInvalidVar before the first variable). A
  // new variable joins that group directly and is tallied in `*joined`.
  void Join(Var v, Var* root, uint32_t* joined) {
    if (Has(v)) {
      ++slots_[v].count;
      const Var r = Find(v);
      *root = *root == kInvalidVar ? r : Unite(*root, r);
    } else if (*root == kInvalidVar) {
      Add(v, v);
      *root = v;
    } else {
      Add(v, *root);
      ++*joined;
    }
  }

  const ClauseDb* db_ = nullptr;
  std::vector<uint32_t> words_;  // the stack; only grows, top_ marks its end
  uint32_t top_ = 0;
  std::vector<Slot> slots_;  // var -> union-find slot, live at epoch_
  uint32_t epoch_ = 0;
  uint32_t groups_ = 0;        // the split's union-find roots
  uint32_t grouped_vars_ = 0;  // the split's variables in live clauses
  std::vector<Live> live_;
  std::vector<Var> unassigned_;  // one clause's unassigned variables
  std::vector<Var> placed_;      // the split's roots, in placing order
  std::vector<Var> rest_;        // the split's variables in no group
};

/// 64-bit fingerprint of a cache key. ComponentCache compares the full key
/// on every fingerprint match, so the width only sets how often that
/// comparison fails, never whether an answer is right.
uint64_t Fingerprint(std::span<const uint32_t> key);

/// Component cache: component keys -> V. Each key is stored once, in an
/// append-only arena, and indexed by its fingerprint; a probe hashes
/// nothing itself and copies nothing, and every fingerprint match is
/// confirmed by comparing the full key, so two components that share a
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

  /// Stores `value` under `key`, which must not be present yet, and
  /// returns the entry's id.
  uint32_t Insert(std::span<const uint32_t> key, uint64_t fingerprint,
                  V value) {
    const uint32_t id = static_cast<uint32_t>(values_.size());
    arena_.insert(arena_.end(), key.begin(), key.end());
    key_ends_.push_back(arena_.size());
    values_.push_back(std::move(value));
    index_.Insert(fingerprint, id);
    return id;
  }
  /// Replaces the value of entry `id`.
  void Set(uint32_t id, V value) { values_[id] = std::move(value); }

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

/// An algebra's observability names; a null `splits` is not counted.
struct SearchCounters {
  const char* decisions;
  const char* cache_hits;
  const char* cache_misses;
  const char* splits;
};

/// The one exhaustive-DPLL search. A branch assumes its literal on the
/// trail (unit propagation included), splits the component into
/// sub-components, and evaluates each: a cache hit, or a new decision on
/// its branch variable, high branch first. The search runs as a
/// loop over an explicit stack of Frames, one per open decision, so its
/// depth never uses the C++ stack. It runs in a result algebra, since
/// count, WMC and circuit construction are one sum-product evaluation over
/// the same decision structure (PAPERS.md, arXiv 2202.02942); so the
/// compiler and the counters make the same decisions and cache hits.
///
/// An Algebra has types Value (cached per component), Product (one
/// conjunction's accumulator), Sink and Decision (trace records), the
/// SearchCounters kCounters, and Top(), Zero(sink) for a BCP conflict,
/// One(), Implied(product, lit), Free(product, var), Times(product, value,
/// sink), Finish(product, sink), Hi(decision), Lo(decision) and
/// Decide(decision, var, hi, lo). A branch's product takes, in increasing
/// variable order, each literal its propagation implied and each variable
/// it left in no live clause (free), and then its sub-components' values
/// in order; so the order factors multiply in does not depend on the
/// order of the clauses. The circuit ignores free variables (the query
/// kernels apply gap factors); the counters weigh them.
template <typename Algebra>
class Dpll {
 public:
  using Value = typename Algebra::Value;

  /// Counts decisions, cache hits and splits into `stats`, which starts
  /// at zero; each decision charges `guard` one decision and one node.
  Dpll(Algebra& algebra, DdnnfOptions options, DdnnfStats& stats,
       Guard& guard)
      : algebra_(algebra), options_(options), stats_(stats), guard_(guard) {}

  /// Evaluates `cnf` over all of its variables. The counts reach the
  /// registry once, on every exit (a guard refusal included), so the
  /// search loop pays no atomic per event.
  Result<Value> Run(const Cnf& cnf) {
    Result<Value> value = Search(cnf);
    Publish();
    return value;
  }

 private:
  Result<Value> Search(const Cnf& cnf) {
    db_.Load(cnf);
    trail_.Reset(db_);
    stack_.Reset(db_);
    depth_ = 0;
    Open(Push(0, kInvalidVar), Lit());
    for (;;) {
      Frame& f = frames_[depth_];
      if (!f.conflict && f.next < stack_.size()) {
        // The open branch's next sub-component: a cache hit, or a decision.
        const uint32_t at = f.next;
        f.next = stack_.End(at);
        uint64_t fingerprint = 0;
        if (options_.use_cache) {
          fingerprint = Fingerprint(stack_.Key(at));
          if (const Value* hit = cache_.Find(stack_.Key(at), fingerprint)) {
            ++stats_.cache_hits;
            algebra_.Times(f.product, *hit, SinkOf(depth_));
            continue;
          }
        }
        ++stats_.decisions;
        // One decision = one decision node or cache entry: charge both
        // budgets here, at the head of the exponential search, so a trip
        // surfaces within one decision's work.
        TBC_RETURN_IF_ERROR(guard_.ChargeDecision());
        TBC_RETURN_IF_ERROR(guard_.ChargeNodes(1));
        const Var v = stack_.BranchVar(at);
        Frame& g = Push(at, v);
        // The key goes into the cache now, its value when the decision
        // completes. No component inside this one has the same key (each
        // lacks the decision variable), so the entry is never read early,
        // and the low branch need not keep the component on the stack.
        if (options_.use_cache) {
          g.entry = cache_.Insert(stack_.Key(at), fingerprint, Value{});
        }
        Open(g, Pos(v));
        continue;
      }
      // The open branch is complete.
      Value value = f.conflict ? algebra_.Zero(SinkOf(depth_))
                               : algebra_.Finish(f.product, SinkOf(depth_));
      stack_.PopTo(f.first);
      trail_.Undo(f.mark);
      if (depth_ == 0) return value;
      if (!f.lo) {
        f.hi = std::move(value);
        f.lo = true;
        Open(f, Neg(f.var));
        continue;
      }
      const Value result = algebra_.Decide(f.decision, f.var, f.hi, value);
      if (options_.use_cache) cache_.Set(f.entry, result);
      --depth_;
      algebra_.Times(frames_[depth_].product, result, SinkOf(depth_));
    }
  }

  // Adds the run's counts to the registry. With the cache on, every
  // decision follows a cache miss. A zero count registers no name.
  void Publish() const {
    if (stats_.decisions != 0) {
      TBC_COUNT_N(Algebra::kCounters.decisions, stats_.decisions);
      if (options_.use_cache) {
        TBC_COUNT_N(Algebra::kCounters.cache_misses, stats_.decisions);
      }
    }
    if (stats_.cache_hits != 0) {
      TBC_COUNT_N(Algebra::kCounters.cache_hits, stats_.cache_hits);
    }
    if constexpr (Algebra::kCounters.splits != nullptr) {
      if (stats_.components_split != 0) {
        TBC_COUNT_N(Algebra::kCounters.splits, stats_.components_split);
      }
    }
  }

  // One open decision of the search (the root's frame has none): the
  // component it decides, the branch it is in, that branch's trail mark,
  // its open conjunction and the sub-components still to evaluate.
  struct Frame {
    uint32_t comp = 0;      // the component's offset on stack_
    uint32_t first = 0;     // the open branch's sub-components start
    uint32_t next = 0;      // the next one to evaluate
    uint32_t mark = 0;      // trail size before the open branch
    uint32_t entry = 0;     // the component's cache entry
    Var var = kInvalidVar;  // the decision variable
    bool lo = false;        // the open branch is the low one
    bool conflict = false;  // the open branch failed propagation
    typename Algebra::Product product{};
    typename Algebra::Decision decision{};
    Value hi{};  // the high branch's value, once the low one runs
  };

  // The frame at the next depth (depth 0 for the first call), reset to
  // decide the component at `comp` on `var`. Frames are reused; a deque
  // keeps the outer ones in place when a deeper one is added.
  Frame& Push(uint32_t comp, Var var) {
    if (var != kInvalidVar) ++depth_;
    if (frames_.size() <= depth_) frames_.emplace_back();
    Frame& f = frames_[depth_];
    f.comp = comp;
    f.var = var;
    f.lo = false;
    f.decision = {};
    return f;
  }

  // Opens the branch of `f` that assumes `l` (the root's, with an invalid
  // `l`, assumes the unit clauses): propagates and, unless that conflicts,
  // splits the component and multiplies the implied literals and free
  // variables into the branch's product.
  void Open(Frame& f, Lit l) {
    f.mark = static_cast<uint32_t>(trail_.size());
    f.first = f.next = stack_.size();
    f.conflict = !(l.valid() ? trail_.Assume(l) : trail_.AssumeUnits());
    if (f.conflict) return;
    f.product = algebra_.One();
    std::span<const Var> rest;
    if (stack_.Split(f.comp, trail_, options_.use_components, &rest) > 1) {
      ++stats_.components_split;
    }
    for (const Var v : rest) {
      if (v == f.var) continue;
      if (trail_.Assigned(v)) {
        algebra_.Implied(f.product, trail_.TrueLit(v));
      } else {
        algebra_.Free(f.product, v);
      }
    }
    // The low branch is the component's last use. When it is the top
    // component below the new ones, they move down over it, so a chain of
    // decisions keeps one component on the stack instead of all of them.
    if (f.lo && stack_.End(f.comp) == f.first) {
      stack_.MoveDown(f.first, f.comp);
      f.first = f.next = f.comp;
    }
  }

  typename Algebra::Sink SinkOf(size_t depth) {
    if (depth == 0) return algebra_.Top();
    Frame& f = frames_[depth];
    return f.lo ? algebra_.Lo(f.decision) : algebra_.Hi(f.decision);
  }

  Algebra& algebra_;
  const DdnnfOptions options_;
  DdnnfStats& stats_;
  Guard& guard_;
  ClauseDb db_;
  Trail trail_;
  ComponentStack stack_;
  std::deque<Frame> frames_;
  size_t depth_ = 0;
  ComponentCache<Value> cache_;
};

}  // namespace tbc::compiler_internal

#endif  // TBC_COMPILER_SUBPROBLEM_H_
