#include "compiler/subproblem.h"

#include "base/check.h"

namespace tbc::compiler_internal {

void LoadCnf(const Cnf& cnf, ClauseSet* out) {
  out->clear();
  for (const Clause& c : cnf.clauses()) {
    TBC_CHECK_MSG(out->lits.size() + c.size() <= UINT32_MAX,
                  "CNF too large for 32-bit clause offsets");
    out->Append(c);
    std::sort(out->lits.end() - static_cast<std::ptrdiff_t>(c.size()),
              out->lits.end());
  }
}

uint64_t Canonicalize(ClauseRange in, std::vector<SortEntry>* order,
                      ClauseSet* out, std::vector<uint32_t>* key) {
  const ClauseSet& set = *in.set;
  order->clear();
  for (uint32_t i = in.first; i < in.last; ++i) {
    const std::span<const Lit> c = set.clause(i);
    TBC_DCHECK(std::is_sorted(c.begin(), c.end()));
    // A missing literal packs as 0, below every second literal: within a
    // sorted clause the second code exceeds the first, so it is nonzero.
    // Order on prefixes therefore agrees with lexicographic order, and
    // only equal prefixes fall back to comparing the literals.
    const uint64_t lead = c.empty() ? 0 : c[0].code();
    const uint64_t next = c.size() < 2 ? 0 : c[1].code();
    order->push_back({(lead << 32) | next, i});
  }
  std::sort(order->begin(), order->end(),
            [&set](const SortEntry& a, const SortEntry& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              const std::span<const Lit> ca = set.clause(a.clause);
              const std::span<const Lit> cb = set.clause(b.clause);
              return std::lexicographical_compare(ca.begin(), ca.end(),
                                                  cb.begin(), cb.end());
            });
  // Sized for the worst case (no duplicates) and trimmed at the end, so
  // the clauses and the key are written through cursors.
  const size_t num_lits = set.begin_of(in.last) - set.begin_of(in.first);
  out->lits.resize(num_lits);
  out->ends.resize(order->size());
  if (key != nullptr) key->resize(order->size() + num_lits);
  uint32_t write = 0;
  size_t kept = 0;
  size_t key_write = 0;
  std::span<const Lit> prev;
  for (const SortEntry& e : *order) {
    const std::span<const Lit> c = set.clause(e.clause);
    if (kept != 0 && std::equal(c.begin(), c.end(), prev.begin(), prev.end())) {
      continue;
    }
    std::copy(c.begin(), c.end(), out->lits.begin() + write);
    write += static_cast<uint32_t>(c.size());
    out->ends[kept++] = write;
    if (key != nullptr) {
      (*key)[key_write++] = static_cast<uint32_t>(c.size());
      for (const Lit l : c) (*key)[key_write++] = l.code();
    }
    prev = c;
  }
  out->lits.resize(write);
  out->ends.resize(kept);
  if (key == nullptr) return 0;
  key->resize(key_write);
  return Fingerprint(*key);
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

namespace {

// One propagation pass: reduces `in`'s clauses under `value`, in order,
// and writes the survivors to `out`, which may be `in` (the write cursors
// never pass the read cursors). A unit is assigned as soon as it is
// found, so the clauses after it in the same pass see it. If the pass
// reaches clause `bound` without having found a unit, the clauses from
// there on were reduced under this same assignment by the pass before,
// so they move down unread. Returns false on an empty clause (`out` then
// holds garbage); else sets `*rescan` to the number of survivors before
// the pass's last unit, 0 when it found none: the next pass's bound.
bool ReducePass(const ClauseSet& in, size_t bound, ClauseSet& out,
                VarMap& value, std::vector<Lit>& implied, size_t* rescan) {
  const size_t n = in.size();
  const uint32_t in_lits = in.begin_of(n);
  bool found = false;
  *rescan = 0;
  uint32_t write = 0;
  size_t kept = 0;
  uint32_t begin = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i == bound && !found) {
      const uint32_t shift = begin - write;
      if (&in == &out && shift == 0) {
        TBC_DCHECK(kept == i);
        kept = n;  // nothing dropped yet: the tail is already in place
      } else {
        std::copy(in.lits.begin() + begin, in.lits.begin() + in_lits,
                  out.lits.begin() + write);
        for (size_t j = i; j < n; ++j) out.ends[kept++] = in.ends[j] - shift;
      }
      write += in_lits - begin;
      break;
    }
    const uint32_t end = in.ends[i];
    // Scan first: clauses untouched by the current assignment (the bulk
    // of every pass) move through without a per-literal rebuild.
    bool satisfied = false;
    bool shrinks = false;
    for (uint32_t j = begin; j < end; ++j) {
      const Lit l = in.lits[j];
      if (!value.Has(l.var())) continue;
      if ((value.Get(l.var()) != 0) == l.positive()) {
        satisfied = true;
        break;
      }
      shrinks = true;
    }
    if (satisfied) {
      begin = end;
      continue;
    }
    const uint32_t start = write;
    if (shrinks) {
      for (uint32_t j = begin; j < end; ++j) {
        if (!value.Has(in.lits[j].var())) out.lits[write++] = in.lits[j];
      }
    } else {
      if (&in != &out || write != begin) {
        std::copy(in.lits.begin() + begin, in.lits.begin() + end,
                  out.lits.begin() + write);
      }
      write += end - begin;
    }
    begin = end;
    if (write == start) return false;
    if (write - start == 1) {
      // The reduced clause's one literal is unassigned, so it is new.
      const Lit u = out.lits[start];
      TBC_DCHECK(!value.Has(u.var()));
      value.Set(u.var(), u.positive() ? 1 : 0);
      implied.push_back(u);
      found = true;
      *rescan = kept;
      write = start;
      continue;
    }
    out.ends[kept++] = write;
  }
  out.lits.resize(write);
  out.ends.resize(kept);
  return true;
}

// Runs bounded passes over `clauses`, each up to the last unit of the
// one before, until a pass finds no unit there.
BcpOutcome Settle(ClauseSet* clauses, size_t rescan, VarMap& value,
                  std::vector<Lit>& implied) {
  while (rescan != 0) {
    if (!ReducePass(*clauses, rescan, *clauses, value, implied, &rescan)) {
      return BcpOutcome::kConflict;
    }
  }
  return BcpOutcome::kOk;
}

}  // namespace

BcpOutcome Propagate(ClauseSet* clauses, std::vector<Lit>* implied,
                     VarMap& value) {
  implied->clear();
  value.Clear();
  size_t rescan = 0;
  if (!ReducePass(*clauses, clauses->size(), *clauses, value, *implied,
                  &rescan)) {
    return BcpOutcome::kConflict;
  }
  return Settle(clauses, rescan, value, *implied);
}

BcpOutcome PropagateAssuming(const ClauseSet& clauses, Lit l, ClauseSet* out,
                             std::vector<Lit>* implied, VarMap& value) {
  implied->clear();
  value.Clear();
  value.Set(l.var(), l.positive() ? 1 : 0);
  out->lits.resize(clauses.lits.size());
  out->ends.resize(clauses.size());
  size_t rescan = 0;
  if (!ReducePass(clauses, clauses.size(), *out, value, *implied, &rescan)) {
    return BcpOutcome::kConflict;
  }
  return Settle(out, rescan, value, *implied);
}

const ClauseSet& SplitComponents(const ClauseSet& clauses, ClauseSet* scratch,
                                 std::vector<uint32_t>* comp_ends,
                                 SplitScratch& split) {
  VarMap& parent = split.parent;
  parent.Clear();
  // Every variable starts as its own component and every merge joins
  // two, so the union pass alone tells whether there is more than one.
  size_t components = 0;
  auto find = [&parent, &components](Var v) -> Var {
    if (!parent.Has(v)) {
      parent.Set(v, v);
      ++components;
      return v;
    }
    Var root = v;
    while (parent.Get(root) != root) root = parent.Get(root);
    while (parent.Get(v) != root) {  // path compression
      const Var next = parent.Get(v);
      parent.Set(v, root);
      v = next;
    }
    return root;
  };
  const size_t n = clauses.size();
  for (size_t i = 0; i < n; ++i) {
    const std::span<const Lit> c = clauses.clause(i);
    Var ra = find(c[0].var());
    for (size_t j = 1; j < c.size(); ++j) {
      const Var rb = find(c[j].var());
      if (ra != rb) {
        parent.Set(ra, rb);
        --components;
        ra = rb;  // the merged root, as find(c[0].var()) would now return
      }
    }
  }
  comp_ends->clear();
  if (components <= 1) {
    if (n > 0) comp_ends->push_back(static_cast<uint32_t>(n));
    return clauses;
  }
  VarMap& comp_index = split.comp_index;
  comp_index.Clear();
  std::vector<uint32_t>& clause_comp = split.clause_comp;
  clause_comp.resize(n);
  uint32_t num_roots = 0;
  for (size_t i = 0; i < n; ++i) {
    const Var root = find(clauses.clause(i)[0].var());
    if (!comp_index.Has(root)) comp_index.Set(root, num_roots++);
    clause_comp[i] = comp_index.Get(root);
  }
  // Counting sort by component: size each group, then scatter the clauses
  // in their original order.
  std::vector<uint32_t>& lit_pos = split.lit_pos;
  std::vector<uint32_t>& clause_pos = split.clause_pos;
  comp_ends->assign(num_roots, 0);
  lit_pos.assign(num_roots, 0);
  for (size_t i = 0; i < n; ++i) {
    ++(*comp_ends)[clause_comp[i]];
    lit_pos[clause_comp[i]] += clauses.ends[i] - clauses.begin_of(i);
  }
  clause_pos.resize(num_roots);
  uint32_t clause_sum = 0;
  uint32_t lit_sum = 0;
  for (uint32_t k = 0; k < num_roots; ++k) {
    clause_pos[k] = clause_sum;
    clause_sum += (*comp_ends)[k];
    (*comp_ends)[k] = clause_sum;
    const uint32_t lits_in_k = lit_pos[k];
    lit_pos[k] = lit_sum;
    lit_sum += lits_in_k;
  }
  scratch->lits.resize(lit_sum);
  scratch->ends.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t k = clause_comp[i];
    const std::span<const Lit> c = clauses.clause(i);
    std::copy(c.begin(), c.end(), scratch->lits.begin() + lit_pos[k]);
    lit_pos[k] += static_cast<uint32_t>(c.size());
    scratch->ends[clause_pos[k]++] = lit_pos[k];
  }
  return *scratch;
}

Var PickBranchVar(const ClauseSet& clauses, VarMap& occurrences) {
  occurrences.Clear();
  // Counts only grow, so the running leader under (count, then smaller
  // id) ends as the overall one.
  Var best = kInvalidVar;
  uint32_t best_count = 0;
  for (const Lit l : clauses.lits) {
    const Var v = l.var();
    const uint32_t count = occurrences.Has(v) ? occurrences.Get(v) + 1 : 1;
    occurrences.Set(v, count);
    if (count > best_count || (count == best_count && v < best)) {
      best = v;
      best_count = count;
    }
  }
  return best;
}

void ConditionClauses(const ClauseSet& clauses, Lit l, ClauseSet* out) {
  // Sized for the worst case and trimmed at the end, so the copy writes
  // through cursors instead of growing the vectors literal by literal.
  out->lits.resize(clauses.lits.size());
  out->ends.resize(clauses.size());
  const Lit neg = ~l;
  uint32_t write = 0;
  size_t kept = 0;
  uint32_t begin = 0;
  for (size_t i = 0; i < clauses.size(); ++i) {
    const uint32_t end = clauses.ends[i];
    const uint32_t start = write;
    bool satisfied = false;
    for (uint32_t j = begin; j < end; ++j) {
      const Lit x = clauses.lits[j];
      if (x == l) {
        satisfied = true;
        break;
      }
      if (x != neg) out->lits[write++] = x;
    }
    begin = end;
    if (satisfied) {
      write = start;
      continue;
    }
    out->ends[kept++] = write;
  }
  out->lits.resize(write);
  out->ends.resize(kept);
}

}  // namespace tbc::compiler_internal
