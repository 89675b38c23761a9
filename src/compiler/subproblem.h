#ifndef TBC_COMPILER_SUBPROBLEM_H_
#define TBC_COMPILER_SUBPROBLEM_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "base/flat_table.h"
#include "logic/cnf.h"
#include "logic/lit.h"

namespace tbc::compiler_internal {

/// A subproblem of exhaustive DPLL: a set of reduced clauses (no satisfied
/// clauses, no false literals). Shared by the Decision-DNNF compiler and
/// the model counter — the paper's point that a model counter's trace *is*
/// a d-DNNF [Huang & Darwiche 2007] shows up here as the two using the
/// same search skeleton.
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
void Canonicalize(ClauseRange in, std::vector<SortEntry>* order,
                  ClauseSet* out);

/// Serializes canonical clauses into `key` (reused buffer) and returns the
/// key's Fingerprint.
///
/// The encoding is length-prefixed — literal count, then the literal
/// codes, one uint32 each — which is injective for every clause set: a
/// decoder always knows where each clause ends. A sentinel-terminated
/// encoding is not, because every uint32 is a valid Lit code (0xFFFFFFFF
/// is the negative literal of var 2^31 - 1), so clause sets containing
/// that literal could collide and the component cache would serve a wrong
/// count. Pinned by CacheKeyIsInjectiveOnSentinelLiteral in compiler_test.
uint64_t CacheKeyInto(const ClauseSet& canonical, std::vector<uint32_t>* key);

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
  /// the key was inserted under (Fingerprint(key) in the drivers). The
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

enum class BcpOutcome { kOk, kConflict };

/// Exhaustive unit propagation, in place: consumes unit clauses into
/// `implied` and leaves the reduced rest in `clauses`, in their original
/// order. After a conflict `clauses` holds garbage.
BcpOutcome Propagate(ClauseSet* clauses, std::vector<Lit>* implied);

/// Groups clauses into variable-connected components (union-find on vars),
/// keeping clause order within each component and ordering components by
/// their first clause. Returns the set that holds the groups — `clauses`
/// itself when there is at most one component (the common case, which
/// copies nothing), else `scratch` — and sets `comp_ends[k]` one past
/// component k's last clause index in it.
const ClauseSet& SplitComponents(const ClauseSet& clauses, ClauseSet* scratch,
                                 std::vector<uint32_t>* comp_ends);

/// Component k of a split: its clauses in `groups`, as SplitComponents
/// returned and bounded them.
inline ClauseRange ComponentOf(const ClauseSet& groups,
                               const std::vector<uint32_t>& comp_ends,
                               size_t k) {
  return {&groups, k == 0 ? 0 : comp_ends[k - 1], comp_ends[k]};
}

/// Most frequently occurring variable (ties broken by smaller index so the
/// search is deterministic).
Var PickBranchVar(const ClauseSet& clauses);

/// Writes `clauses` conditioned on a literal (no propagation) to `out`.
void ConditionClauses(const ClauseSet& clauses, Lit l, ClauseSet* out);

/// Number of distinct variables appearing in the clauses.
size_t CountVars(const ClauseSet& clauses);

/// The buffers one level of the DPLL recursion reuses: the work set it
/// splits into components, and the canonical component it decides on
/// together with that component's cache key and the conditioned branch
/// handed to the next level. Driver-specific state sits in `extra`.
template <typename Extra>
struct Frame {
  std::vector<Lit> implied;
  ClauseSet split;                  // SplitComponents scratch
  std::vector<uint32_t> comp_ends;  // component boundaries in the split
  std::vector<SortEntry> order;     // Canonicalize scratch
  ClauseSet canonical;              // the component being decided
  std::vector<uint32_t> key;        // its cache key
  ClauseSet branch;                 // `canonical` conditioned on a decision
  Extra extra;
};

/// One Frame per recursion depth, created on first use and reused by every
/// later node at that depth. A deque keeps outer frames in place while
/// deeper ones are added.
template <typename Extra>
class FrameStack {
 public:
  Frame<Extra>& at(size_t depth) {
    while (frames_.size() <= depth) frames_.emplace_back();
    return frames_[depth];
  }

 private:
  std::deque<Frame<Extra>> frames_;
};

}  // namespace tbc::compiler_internal

#endif  // TBC_COMPILER_SUBPROBLEM_H_
