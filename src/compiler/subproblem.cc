#include "compiler/subproblem.h"

#include "base/check.h"
#include "base/scratch.h"

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

void Canonicalize(ClauseRange in, std::vector<SortEntry>* order,
                  ClauseSet* out) {
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
  out->clear();
  std::span<const Lit> prev;
  bool first = true;
  for (const SortEntry& e : *order) {
    const std::span<const Lit> c = set.clause(e.clause);
    if (!first && std::equal(c.begin(), c.end(), prev.begin(), prev.end())) {
      continue;
    }
    out->Append(c);
    prev = c;
    first = false;
  }
}

uint64_t CacheKeyInto(const ClauseSet& canonical, std::vector<uint32_t>* key) {
  key->clear();
  key->reserve(canonical.size() + canonical.lits.size());
  for (size_t i = 0; i < canonical.size(); ++i) {
    const std::span<const Lit> c = canonical.clause(i);
    key->push_back(static_cast<uint32_t>(c.size()));
    for (const Lit l : c) key->push_back(l.code());
  }
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

BcpOutcome Propagate(ClauseSet* clauses, std::vector<Lit>* implied) {
  implied->clear();
  // Propagation runs once per DPLL node; the epoch-stamped scratch turns
  // the per-call assignment map into two array probes. Scratch use is
  // strictly within this call, so recursion-level reuse is safe.
  static thread_local EpochMap value;
  value.Clear();
  std::vector<Lit>& lits = clauses->lits;
  std::vector<uint32_t>& ends = clauses->ends;
  bool changed = true;
  while (changed) {
    changed = false;
    // Each pass compacts the kept clauses toward the front: the write
    // cursors never pass the read cursors, so one buffer suffices.
    uint32_t write = 0;
    size_t kept = 0;
    uint32_t begin = 0;
    for (size_t i = 0; i < ends.size(); ++i) {
      const uint32_t end = ends[i];
      // Scan first: clauses untouched by the current assignment (the bulk
      // of every pass) move through without a per-literal rebuild.
      bool satisfied = false;
      bool shrinks = false;
      for (uint32_t j = begin; j < end; ++j) {
        const Lit l = lits[j];
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
          if (!value.Has(lits[j].var())) lits[write++] = lits[j];
        }
      } else {
        if (write != begin) {
          std::copy(lits.begin() + begin, lits.begin() + end,
                    lits.begin() + write);
        }
        write += end - begin;
      }
      begin = end;
      if (write == start) return BcpOutcome::kConflict;
      if (write - start == 1) {
        const Lit u = lits[start];
        if (!value.Has(u.var())) {
          value.Set(u.var(), u.positive() ? 1 : 0);
          implied->push_back(u);
          changed = true;
        }
        write = start;
        continue;
      }
      ends[kept++] = write;
    }
    lits.resize(write);
    ends.resize(kept);
  }
  return BcpOutcome::kOk;
}

const ClauseSet& SplitComponents(const ClauseSet& clauses, ClauseSet* scratch,
                                 std::vector<uint32_t>* comp_ends) {
  static thread_local EpochMap parent;      // var -> union-find parent var
  static thread_local EpochMap comp_index;  // root var -> component index
  static thread_local std::vector<uint32_t> clause_comp;  // clause -> comp
  static thread_local std::vector<uint32_t> lit_pos;      // comp -> cursor
  static thread_local std::vector<uint32_t> clause_pos;   // comp -> cursor
  parent.Clear();
  comp_index.Clear();
  auto find = [](Var v) -> Var {
    if (!parent.Has(v)) {
      parent.Set(v, v);
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
        ra = rb;  // the merged root, as find(c[0].var()) would now return
      }
    }
  }
  clause_comp.resize(n);
  uint32_t num_roots = 0;
  for (size_t i = 0; i < n; ++i) {
    const Var root = find(clauses.clause(i)[0].var());
    if (!comp_index.Has(root)) comp_index.Set(root, num_roots++);
    clause_comp[i] = comp_index.Get(root);
  }
  comp_ends->clear();
  if (num_roots <= 1) {
    if (n > 0) comp_ends->push_back(static_cast<uint32_t>(n));
    return clauses;
  }
  // Counting sort by component: size each group, then scatter the clauses
  // in their original order.
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

Var PickBranchVar(const ClauseSet& clauses) {
  static thread_local EpochMap occurrences;
  occurrences.Clear();
  for (const Lit l : clauses.lits) {
    const Var v = l.var();
    occurrences.Set(v, occurrences.Has(v) ? occurrences.Get(v) + 1 : 1);
  }
  Var best = kInvalidVar;
  size_t best_count = 0;
  for (const Var v : occurrences.touched()) {
    const size_t count = occurrences.Get(v);
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
