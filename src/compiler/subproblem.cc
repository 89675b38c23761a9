#include "compiler/subproblem.h"

#include <algorithm>

#include "base/check.h"

namespace tbc::compiler_internal {

void ClauseDb::Load(const Cnf& cnf) {
  num_vars_ = cnf.num_vars();
  lits_.clear();
  begins_.assign(1, 0);
  // Implication and occurrence lists by one counting sort over the
  // literal codes: count each list's entries at its literal, turn the
  // counts into list ends, and fill back to front, which leaves each list
  // in clause order and each literal's entry at its list's start.
  imp_begins_.assign(2 * num_vars_ + 1, 0);
  occ_begins_.assign(2 * num_vars_ + 1, 0);
  for (const Clause& c : cnf.clauses()) {
    TBC_CHECK_MSG(lits_.size() + c.size() <= UINT32_MAX,
                  "CNF too large for 32-bit clause offsets");
    TBC_DCHECK(std::is_sorted(c.begin(), c.end()));  // as Cnf keeps them
    lits_.insert(lits_.end(), c.begin(), c.end());
    begins_.push_back(static_cast<uint32_t>(lits_.size()));
    std::vector<uint32_t>& count = Binary(c) ? imp_begins_ : occ_begins_;
    for (const Lit l : c) ++count[l.code()];
  }
  for (size_t i = 1; i < occ_begins_.size(); ++i) {
    imp_begins_[i] += imp_begins_[i - 1];
    occ_begins_[i] += occ_begins_[i - 1];
  }
  imp_.resize(imp_begins_.back());
  occ_.resize(occ_begins_.back());
  for (uint32_t c = num_clauses(); c-- > 0;) {
    const std::span<const Lit> lits = clause(c);
    if (Binary(lits)) {
      imp_[--imp_begins_[lits[0].code()]] = lits[1];
      imp_[--imp_begins_[lits[1].code()]] = lits[0];
    } else {
      for (const Lit l : lits) occ_[--occ_begins_[l.code()]] = c;
    }
  }
}

void Trail::Reset(const ClauseDb& db) {
  db_ = &db;
  value_.assign(2 * db.num_vars(), kUnassigned);
  lits_.clear();
}

bool Trail::AssumeUnits() {
  for (uint32_t c = 0; c < db_->num_clauses(); ++c) {
    const std::span<const Lit> lits = db_->clause(c);
    if (lits.empty()) return false;
    if (lits.size() != 1 || IsTrue(lits[0])) continue;
    if (IsFalse(lits[0])) return false;
    Push(lits[0]);
  }
  return Bcp(0);
}

bool Trail::Assume(Lit l) {
  TBC_DCHECK(!Assigned(l.var()));
  const size_t head = lits_.size();
  Push(l);
  return Bcp(head);
}

bool Trail::Bcp(size_t head) {
  while (head < lits_.size()) {
    const Lit falsified = ~lits_[head++];
    // A binary clause's partner is implied, unless it is already decided.
    for (const Lit m : db_->implications(falsified)) {
      const uint8_t value = value_[m.code()];
      if (value == kTrue) continue;
      if (value == kFalse) return false;
      Push(m);
    }
    for (const uint32_t c : db_->occurrences(falsified)) {
      // A clause with a true literal or two unassigned ones is neither
      // unit nor conflicting, so the scan stops at the first of either.
      Lit unit;
      bool open = false;
      for (const Lit x : db_->clause(c)) {
        const uint8_t value = value_[x.code()];
        if (value == kFalse) continue;
        if (value == kTrue || unit.valid()) {
          open = true;
          break;
        }
        unit = x;
      }
      if (open) continue;
      if (!unit.valid()) return false;
      Push(unit);
    }
  }
  return true;
}

void Trail::Undo(size_t mark) {
  for (size_t i = mark; i < lits_.size(); ++i) {
    value_[lits_[i].code()] = kUnassigned;
    value_[(~lits_[i]).code()] = kUnassigned;
  }
  lits_.resize(mark);
}

void ComponentStack::Reset(const ClauseDb& db) {
  db_ = &db;
  const uint32_t num_vars = static_cast<uint32_t>(db.num_vars());
  const uint32_t num_clauses = db.num_clauses();
  TBC_CHECK_MSG(size_t{num_vars} + num_clauses + 3 <= UINT32_MAX,
                "CNF too large for 32-bit component offsets");
  words_.clear();
  words_.push_back(num_vars);
  words_.push_back(num_clauses);
  for (uint32_t v = 0; v < num_vars; ++v) words_.push_back(v);
  for (uint32_t c = 0; c < num_clauses; ++c) words_.push_back(c);
  words_.push_back(kInvalidVar);  // the root is never decided
  top_ = static_cast<uint32_t>(words_.size());
  slots_.assign(num_vars, Slot{});
  epoch_ = 0;
  size_t width = 0;
  for (uint32_t c = 0; c < num_clauses; ++c) {
    width = std::max(width, db.clause(c).size());
  }
  unassigned_.resize(width);
}

void ComponentStack::Add(Var v, Var root) {
  ++grouped_vars_;
  if (root == v) {
    slots_[v] = {epoch_, v, 1, 0, 1, kInvalidVar, false};
    ++groups_;
    return;
  }
  // Only a root's tallies are read, so a new member sets no others; the
  // caller adds it to its root's tally.
  Slot& slot = slots_[v];
  slot.stamp = epoch_;
  slot.parent = root;
  slot.count = 1;
}

Var ComponentStack::Find(Var v) {
  // Path halving; a variable whose parent is its root is left as it is.
  for (Var p = slots_[v].parent; p != v; p = slots_[v].parent) {
    const Var grandparent = slots_[p].parent;
    if (grandparent == p) return p;
    slots_[v].parent = grandparent;
    v = grandparent;
  }
  return v;
}

Var ComponentStack::Unite(Var a, Var b) {
  if (a == b) return a;
  if (slots_[a].vars > slots_[b].vars) std::swap(a, b);
  slots_[a].parent = b;
  slots_[b].vars += slots_[a].vars;
  slots_[b].clauses += slots_[a].clauses;
  --groups_;
  return b;
}

uint32_t ComponentStack::Split(uint32_t parent, const Trail& trail,
                               bool decompose, std::span<const Var>* rest) {
  if (++epoch_ == 0) {
    // Epoch wrap: stale stamps could alias. Reset once every 2^32 splits.
    std::fill(slots_.begin(), slots_.end(), Slot{});
    epoch_ = 1;
  }
  groups_ = 0;
  grouped_vars_ = 0;
  live_.clear();
  // Pass 1, over the parent's clauses: skip the satisfied ones, count
  // each unassigned variable's occurrences in the rest and unite them,
  // tallying each group's variables and clauses at its root.
  Var all = kInvalidVar;  // without decomposition, the one group's root
  for (const uint32_t c : ClauseIdsOf(parent)) {
    const std::span<const Lit> lits = db_->clause(c);
    Var root = kInvalidVar;
    uint32_t joined = 0;  // new variables added under `root`
    Var first = kInvalidVar;  // the clause's first unassigned variable
    if (lits.size() == 2) {
      // Propagation leaves no two-literal clause with one literal false
      // and the other unassigned, so it is satisfied iff a literal is
      // true, and live with both literals unassigned otherwise. Most
      // clauses of a BN encoding are binary, and this step, not the
      // generic scan, is what keeps their split cheap (DESIGN.md).
      const uint8_t values =
          static_cast<uint8_t>(trail.value(lits[0]) | trail.value(lits[1]));
      if ((values & Trail::kTrue) != 0) continue;
      TBC_DCHECK(values == Trail::kUnassigned);
      first = lits[0].var();
      Join(first, &root, &joined);
      Join(lits[1].var(), &root, &joined);
    } else {
      size_t k = 0;
      bool satisfied = false;
      for (const Lit l : lits) {
        const uint8_t value = trail.value(l);
        if (value == Trail::kTrue) {
          satisfied = true;
          break;
        }
        if (value == Trail::kUnassigned) unassigned_[k++] = l.var();
      }
      if (satisfied) continue;
      TBC_DCHECK(k >= 2);  // propagation left no unit or empty clause
      first = unassigned_[0];
      for (size_t i = 0; i < k; ++i) Join(unassigned_[i], &root, &joined);
    }
    // Tallies move with each union, so the final root takes the joined.
    slots_[root].vars += joined;
    if (!decompose) {
      // Uniting this clause's variables may have moved the group's root.
      root = all = all == kInvalidVar ? root : Unite(Find(all), root);
    }
    ++slots_[root].clauses;
    live_.push_back({c, first});
  }
  if (groups_ == 0) {  // no live clause: every variable is left out
    *rest = VarsOf(parent);
    return 0;
  }
  // Pass 2, over the parent's variables in order: a group is placed on
  // the stack when its smallest variable comes up, so groups come out in
  // that order and every id list increasing; its branch variable is the
  // first of its most frequent ones.
  const uint32_t base = top_;
  top_ += 3 * groups_ + grouped_vars_ + static_cast<uint32_t>(live_.size());
  if (words_.size() < top_) {
    words_.resize(std::max<size_t>(top_, 2 * words_.size()));
  }
  const std::span<const uint32_t> vars = VarsOf(parent);
  rest_.resize(vars.size() - grouped_vars_);
  *rest = rest_;
  size_t left_out = 0;
  placed_.clear();
  uint32_t cursor = base;
  for (const uint32_t v : vars) {
    if (!Has(v)) {
      rest_[left_out++] = v;
      continue;
    }
    const Var root = Find(v);
    Slot& group = slots_[root];
    if (!group.placed) {
      words_[cursor] = group.vars;
      words_[cursor + 1] = group.clauses;
      const uint32_t var_at = cursor + 2;
      cursor = var_at + group.vars + group.clauses + 1;
      group.clauses = var_at + group.vars;
      group.vars = var_at;
      group.best = v;
      group.placed = true;
      placed_.push_back(root);
    } else if (slots_[v].count > slots_[group.best].count) {
      group.best = v;
    }
    words_[group.vars++] = v;
  }
  TBC_DCHECK(cursor == size() && left_out == rest_.size());
  // Pass 3, over the live clauses in order; each group's clause cursor
  // ends on its branch-variable word.
  for (const Live& l : live_) words_[slots_[Find(l.var)].clauses++] = l.clause;
  for (const Var root : placed_) {
    words_[slots_[root].clauses] = slots_[root].best;
  }
  return groups_;
}

uint64_t Fingerprint(std::span<const uint32_t> key) {
  // Two words per multiply-xorshift round, then a splitmix finalizer.
  uint64_t h = 0x9e3779b97f4a7c15ull ^ key.size();
  size_t i = 0;
  for (; i + 1 < key.size(); i += 2) {
    h ^= key[i] | (static_cast<uint64_t>(key[i + 1]) << 32);
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 32;
  }
  if (i < key.size()) h ^= key[i];
  return HashU64(h);
}

}  // namespace tbc::compiler_internal
