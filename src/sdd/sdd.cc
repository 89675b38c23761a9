#include "sdd/sdd.h"

#include <algorithm>

#include "base/check.h"
#include "base/hash.h"
#include "base/observability.h"
#include "nnf/queries.h"
#include "sdd/minimize.h"

namespace tbc {

namespace {

SddAutoMinimizeOptions& DefaultAutoMinimizeStorage() {
  static SddAutoMinimizeOptions options;
  return options;
}

}  // namespace

void SddManager::SetDefaultAutoMinimize(const SddAutoMinimizeOptions& options) {
  DefaultAutoMinimizeStorage() = options;
}

const SddAutoMinimizeOptions& SddManager::DefaultAutoMinimize() {
  return DefaultAutoMinimizeStorage();
}

SddManager::SddManager(Vtree vtree)
    : vtree_(std::move(vtree)), auto_minimize_(DefaultAutoMinimize()) {
  // Constants occupy ids 0 (⊥) and 1 (⊤).
  nodes_.push_back({kInvalidVtree, 0, {}, 1});
  nodes_.push_back({kInvalidVtree, 0, {}, 0});
  nodes_at_.resize(vtree_.num_nodes());
}

bool SddManager::ChargeAndCheck(uint64_t new_nodes) {
  if (interrupted_) return true;
  if (guard_ == nullptr) return false;
  Status s = new_nodes > 0 ? guard_->ChargeNodes(new_nodes) : guard_->Poll();
  if (!s.ok()) {
    interrupted_ = true;
    interrupt_status_ = std::move(s);
    return true;
  }
  return false;
}

uint64_t SddManager::NodeHash(const Node& node) const {
  uint64_t h = HashCombine(0, node.vtree);
  h = HashCombine(h, node.lit_code);
  for (const auto& [p, s] : node.elements) h = HashCombine(HashCombine(h, p), s);
  return HashU64(h);
}

SddId SddManager::Intern(Node node) {
  const uint64_t h = NodeHash(node);
  const uint32_t found = unique_.Find(h, [&](uint32_t id) {
    const Node& n = nodes_[id];
    return n.vtree == node.vtree && n.lit_code == node.lit_code &&
           n.elements == node.elements;
  });
  if (found != UniqueTable::kNpos) {
    TBC_COUNT("sdd.unique.hits");
    return found;
  }
  TBC_COUNT("sdd.nodes.created");
  const SddId id = static_cast<SddId>(nodes_.size());
  const bool decision = !node.elements.empty();
  const VtreeId label = node.vtree;
  nodes_.push_back(std::move(node));
  if (decision) nodes_at_[label].push_back(id);
  unique_.Insert(h, id);
  // The returned id stays valid even when this charge trips the budget;
  // the in-flight operation notices via interrupted() and unwinds.
  ChargeAndCheck(1);
  return id;
}

SddId SddManager::LiteralNode(Lit l) {
  TBC_CHECK(l.var() < num_vars());
  Node n;
  n.vtree = vtree_.LeafOfVar(l.var());
  n.lit_code = l.code();
  return Intern(std::move(n));
}

SddManager::BuiltDecision SddManager::BuildDecision(
    std::vector<std::pair<SddId, SddId>> elements) {
  BuiltDecision out;
  // Drop ⊥ primes.
  std::erase_if(elements, [](const auto& e) { return e.first == 0; });
  // Interrupted sub-applies return ⊥, so a partition can legitimately
  // empty out mid-unwind; the result is discarded by the caller anyway.
  if (elements.empty() && interrupted_) {
    out.trimmed = False();
    return out;
  }
  TBC_CHECK_MSG(!elements.empty(), "decision node with empty partition");
  // Compress: disjoin primes that share a sub.
  std::sort(elements.begin(), elements.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  std::vector<std::pair<SddId, SddId>> compressed;
  for (const auto& [p, s] : elements) {
    if (!compressed.empty() && compressed.back().second == s) {
      compressed.back().first = Disjoin(compressed.back().first, p);
    } else {
      compressed.push_back({p, s});
    }
  }
  // Trimming rule 1: {(⊤, s)} -> s.
  if (compressed.size() == 1) {
    TBC_DCHECK(compressed[0].first == True() || interrupted_);
    out.trimmed = compressed[0].second;
    return out;
  }
  // Trimming rule 2: {(p, ⊤), (¬p, ⊥)} -> p.
  if (compressed.size() == 2) {
    // After sorting by sub, compressed[0].second < compressed[1].second.
    if (compressed[0].second == False() && compressed[1].second == True()) {
      out.trimmed = compressed[1].first;
      return out;
    }
  }
  std::sort(compressed.begin(), compressed.end());
  out.elements = std::move(compressed);
  return out;
}

SddId SddManager::MakeDecision(VtreeId v,
                               std::vector<std::pair<SddId, SddId>> elements) {
  BuiltDecision built = BuildDecision(std::move(elements));
  if (built.trimmed != kInvalidSdd) return built.trimmed;
  Node n;
  n.vtree = v;
  n.elements = std::move(built.elements);
  return Intern(std::move(n));
}

SddId SddManager::Negate(SddId f) {
  if (nodes_[f].negation != kInvalidSdd) return nodes_[f].negation;
  SddId result;
  if (IsLiteral(f)) {
    result = LiteralNode(~literal(f));
  } else {
    std::vector<std::pair<SddId, SddId>> elements = nodes_[f].elements;
    for (auto& [p, s] : elements) s = Negate(s);
    result = MakeDecision(nodes_[f].vtree, std::move(elements));
  }
  // Never cache negation links computed during an interrupted unwind (the
  // links are permanent; a bogus one would outlive ClearInterrupt()).
  if (interrupted_) return False();
  nodes_[f].negation = result;
  nodes_[result].negation = f;
  return result;
}

std::vector<std::pair<SddId, SddId>> SddManager::NormalizeTo(VtreeId v, SddId g) {
  TBC_DCHECK(!IsConstant(g));
  const VtreeId vg = nodes_[g].vtree;
  if (vtree_.IsAncestorOrSelf(vtree_.left(v), vg)) {
    return {{g, True()}, {Negate(g), False()}};
  }
  TBC_DCHECK(vtree_.IsAncestorOrSelf(vtree_.right(v), vg));
  return {{True(), g}};
}

SddId SddManager::Apply(Op op, SddId f, SddId g) {
  // Once interrupted, unwind in constant time per frame: every pending
  // apply collapses to ⊥ and the caller surfaces interrupt_status().
  if (interrupted_ || ChargeAndCheck(0)) return False();
  // Terminal cases.
  if (f == g) return f;
  if (op == Op::kAnd) {
    if (f == False() || g == False()) return False();
    if (f == True()) return g;
    if (g == True()) return f;
    if (nodes_[f].negation == g) return False();
  } else {
    if (f == True() || g == True()) return True();
    if (f == False()) return g;
    if (g == False()) return f;
    if (nodes_[f].negation == g) return True();
  }
  if (f > g) std::swap(f, g);
  TBC_COUNT("sdd.apply.calls");
  const OpKey key{f | (static_cast<uint64_t>(g) << 32), static_cast<uint32_t>(op)};
  if (const OpCacheEntry* hit = op_cache_.Find(key)) {
    // Node ids are stable function handles: in-place edits rewrite a
    // node's partition but never its function, relabels keep identity,
    // and trims forward to an equal function. Cached results therefore
    // survive vtree edits as function-level facts; UsableCacheResult
    // rejects the two structural hazards (see OpCacheEntry) and chases
    // reclaimed results to their canonical survivors.
    const SddId r = UsableCacheResult(*hit);
    if (r != kInvalidSdd) {
      TBC_COUNT("sdd.apply.cache_hits");
      return r;
    }
  }
  TBC_COUNT("sdd.apply.cache_misses");

  const VtreeId vf = nodes_[f].vtree;
  const VtreeId vg = nodes_[g].vtree;
  SddId result;
  if (vf == vg && vtree_.IsLeaf(vf)) {
    // Same-variable literals; equal/complement handled above, so this is
    // x op ¬x.
    result = op == Op::kAnd ? False() : True();
  } else {
    VtreeId v;
    std::vector<std::pair<SddId, SddId>> ef, eg;
    if (vf == vg) {
      v = vf;
      ef = nodes_[f].elements;
      eg = nodes_[g].elements;
    } else if (vtree_.IsAncestorOrSelf(vf, vg)) {
      v = vf;
      ef = nodes_[f].elements;
      eg = NormalizeTo(v, g);
    } else if (vtree_.IsAncestorOrSelf(vg, vf)) {
      v = vg;
      ef = NormalizeTo(v, f);
      eg = nodes_[g].elements;
    } else {
      v = vtree_.Lca(vf, vg);
      ef = NormalizeTo(v, f);
      eg = NormalizeTo(v, g);
    }
    // Cross product of the two partitions.
    std::vector<std::pair<SddId, SddId>> elements;
    elements.reserve(ef.size() * eg.size());
    for (const auto& [p1, s1] : ef) {
      for (const auto& [p2, s2] : eg) {
        const SddId p = Apply(Op::kAnd, p1, p2);
        if (p == False()) continue;
        elements.push_back({p, Apply(op, s1, s2)});
      }
    }
    result = MakeDecision(v, std::move(elements));
  }
  // Results computed during an interrupted unwind are meaningless; keep
  // them out of the op cache so a cleared manager stays correct.
  if (interrupted_) return False();
  op_cache_.Insert(key, {result, in_edit_ ? edit_epoch_ : 0u});
  return result;
}

SddId SddManager::Conjoin(SddId f, SddId g) { return Apply(Op::kAnd, f, g); }
SddId SddManager::Disjoin(SddId f, SddId g) { return Apply(Op::kOr, f, g); }

SddId SddManager::Condition(SddId f, Lit l) {
  if (IsConstant(f)) return f;
  if (IsLiteral(f)) {
    const Lit x = literal(f);
    if (x == l) return True();
    if (x == ~l) return False();
    return f;
  }
  const VtreeId v = nodes_[f].vtree;
  const VtreeId leaf = vtree_.LeafOfVar(l.var());
  if (!vtree_.IsAncestorOrSelf(v, leaf)) return f;
  const OpKey key{f, 2u + l.code()};
  // Same epoch/Resolve discipline as the Apply hit path: entries survive
  // vtree edits as function-level facts, but the result id may be dead.
  if (const OpCacheEntry* hit = op_cache_.Find(key)) {
    const SddId r = UsableCacheResult(*hit);
    if (r != kInvalidSdd) return r;
  }
  std::vector<std::pair<SddId, SddId>> elements = nodes_[f].elements;
  if (vtree_.IsAncestorOrSelf(vtree_.left(v), leaf)) {
    for (auto& [p, s] : elements) p = Condition(p, l);
  } else {
    for (auto& [p, s] : elements) s = Condition(s, l);
  }
  const SddId result = MakeDecision(v, std::move(elements));
  if (interrupted_) return False();
  op_cache_.Insert(key, {result, in_edit_ ? edit_epoch_ : 0u});
  return result;
}

// ---- In-place dynamic vtree minimization [Choi & Darwiche 2013] ----

std::vector<SddId> SddManager::CollectAt(VtreeId v) {
  std::vector<SddId>& bucket = nodes_at_[v];
  std::vector<SddId> live;
  live.reserve(bucket.size());
  for (const SddId id : bucket) {
    // Aborted edits truncate node storage, so buckets can hold ids past the
    // end (and, after id reuse, duplicates); filter and compact.
    if (id >= nodes_.size()) continue;
    const Node& n = nodes_[id];
    if (n.vtree != v || n.forward != kInvalidSdd || n.elements.empty()) {
      continue;
    }
    live.push_back(id);
  }
  std::sort(live.begin(), live.end());
  live.erase(std::unique(live.begin(), live.end()), live.end());
  bucket = live;
  return live;
}

void SddManager::Relabel(SddId id, VtreeId v) {
  Node& n = nodes_[id];
  unique_.Erase(NodeHash(n), id);
  n.vtree = v;
  unique_.Insert(NodeHash(n), id);
  nodes_at_[v].push_back(id);
}

void SddManager::AbortEdit(EditKind kind, VtreeId v, VtreeId child,
                           const std::vector<SddId>& relabeled, size_t mark) {
  TBC_COUNT("sdd.minimize.aborts");
  // Cache entries minted during this edit mention ids >= mark that are
  // about to be truncated (and later reused); marking the epoch aborted
  // in EndEdit(false) rejects them all in O(1), no cache scan needed.
  // Fresh nodes may have minted negation links into pre-existing nodes;
  // those links would dangle once the fresh half is truncated away.
  for (size_t id = mark; id < nodes_.size(); ++id) {
    const SddId neg = nodes_[id].negation;
    if (neg != kInvalidSdd && neg < mark &&
        nodes_[neg].negation == static_cast<SddId>(id)) {
      nodes_[neg].negation = kInvalidSdd;
    }
    unique_.Erase(NodeHash(nodes_[id]), static_cast<uint32_t>(id));
  }
  nodes_.resize(mark);
  // Stale bucket entries past the truncation point are filtered lazily by
  // CollectAt; only the relabels and the vtree move need explicit undo.
  for (const SddId id : relabeled) Relabel(id, child);
  bool ok = false;
  switch (kind) {
    case EditKind::kRotateRight:
      ok = vtree_.RotateLeftAt(v);
      break;
    case EditKind::kRotateLeft:
      ok = vtree_.RotateRightAt(v);
      break;
    case EditKind::kSwap:
      ok = vtree_.SwapChildrenAt(v);
      break;
  }
  TBC_CHECK_MSG(ok, "in-place edit rollback failed to undo the vtree move");
}

SddEditResult SddManager::Edit(EditKind kind, VtreeId v) {
  SddEditResult res;
  if (interrupted_ || vtree_.IsLeaf(v)) return res;
  // Subtree roots, captured before the vtree mutates. Rotations move the
  // middle subtree b across the v/child edge; swap exchanges a and b.
  VtreeId child = kInvalidVtree;
  VtreeId a = kInvalidVtree, b = kInvalidVtree;
  switch (kind) {
    case EditKind::kRotateRight:  // v=(child=(a,b), c) -> v=(a, child=(b,c))
      child = vtree_.left(v);
      if (vtree_.IsLeaf(child)) return res;
      a = vtree_.left(child);
      b = vtree_.right(child);
      break;
    case EditKind::kRotateLeft:  // v=(a, child=(b,c)) -> v=(child=(a,b), c)
      child = vtree_.right(v);
      if (vtree_.IsLeaf(child)) return res;
      a = vtree_.left(v);
      b = vtree_.left(child);
      break;
    case EditKind::kSwap:  // v=(a,b) -> v=(b,a)
      a = vtree_.left(v);
      b = vtree_.right(v);
      break;
  }
  const std::vector<SddId> at_v = CollectAt(v);
  const std::vector<SddId> at_child =
      child == kInvalidVtree ? std::vector<SddId>{} : CollectAt(child);
  // No op-cache purge: opening an edit epoch hides pre-edit entries whose
  // results sit inside the fragment being rewritten (below-v results stay
  // visible) from the applies below, in O(1). Scanning the cache per edit
  // would cost O(capacity) — it dominated minimization before removal.
  BeginEdit(v);

  bool ok = false;
  switch (kind) {
    case EditKind::kRotateRight:
      ok = vtree_.RotateRightAt(v);
      break;
    case EditKind::kRotateLeft:
      ok = vtree_.RotateLeftAt(v);
      break;
    case EditKind::kSwap:
      ok = vtree_.SwapChildrenAt(v);
      break;
  }
  TBC_CHECK(ok);

  // Nodes at the rotated child keep their elements verbatim: for RR their
  // (primes over a, subs over b) split is still legal at the new v=(a,
  // (b,c)); for RL their (primes over b, subs over c) split is still legal
  // at the new v=((a,b), c). Relabeling preserves canonicity because such
  // nodes never essentially depend on the side they do not mention, while
  // every stored v-labeled node depends on both sides of v.
  for (const SddId id : at_child) Relabel(id, v);
  res.relabeled = at_child.size();

  // Phase 1 (interruptible): recompute the partition of every old v-labeled
  // node for the new variable split. All applies here run strictly inside
  // v's new subtrees — they never create or read v-labeled nodes — so an
  // abort can roll back by truncating at `mark`.
  const size_t mark = nodes_.size();
  struct Plan {
    SddId id;
    BuiltDecision built;
  };
  std::vector<Plan> plans;
  plans.reserve(at_v.size());
  for (const SddId id : at_v) {
    // Applies below can reallocate nodes_; copy the element list first.
    const std::vector<std::pair<SddId, SddId>> elems = nodes_[id].elements;
    std::vector<std::pair<SddId, SddId>> raw;
    if (kind == EditKind::kRotateLeft) {
      // (p over a, s over b∪c): expand s as a decision over the old child
      // {(q over b, u over c)}; the direct product (p∧q, u) has pairwise
      // disjoint primes, so no refinement is needed. ⊥ subs must be kept —
      // dropping them would break prime exhaustiveness.
      for (const auto& [p, s] : elems) {
        std::vector<std::pair<SddId, SddId>> se;
        if (IsConstant(s)) {
          se = {{True(), s}};
        } else if (nodes_[s].vtree == v) {
          se = nodes_[s].elements;  // relabeled old-child node
        } else if (vtree_.IsAncestorOrSelf(b, nodes_[s].vtree)) {
          se = {{s, True()}, {Negate(s), False()}};
        } else {
          se = {{True(), s}};  // c-side
        }
        for (const auto& [q, u] : se) {
          const SddId np = Conjoin(p, q);
          if (np == False()) continue;
          raw.push_back({np, u});
        }
      }
    } else {
      // RR: (p over a∪b, s over c) → expand p as a decision over the old
      // child {(q over a, r over b)} giving triples (q, r∧s). Swap:
      // elements flip to triples (s, p) directly. Either way the first
      // components need not be disjoint across triples, so rebuild the
      // partition by refinement.
      std::vector<std::pair<SddId, SddId>> triples;
      for (const auto& [p, s] : elems) {
        if (kind == EditKind::kSwap) {
          if (s == False()) continue;  // contributes nothing
          triples.push_back({s, p});
          continue;
        }
        std::vector<std::pair<SddId, SddId>> pe;
        if (nodes_[p].vtree == v) {
          pe = nodes_[p].elements;  // relabeled old-child node
        } else if (vtree_.IsAncestorOrSelf(a, nodes_[p].vtree)) {
          pe = {{p, True()}, {Negate(p), False()}};
        } else {
          pe = {{True(), p}};  // b-side
        }
        for (const auto& [q, r] : pe) {
          triples.push_back({q, Conjoin(r, s)});
        }
      }
      // Partition refinement: split each cell (π, w) on the triple's guard
      // q, accumulating the guarded function u into the inside half.
      std::vector<std::pair<SddId, SddId>> cells = {{True(), False()}};
      for (const auto& [q, u] : triples) {
        std::vector<std::pair<SddId, SddId>> next;
        next.reserve(cells.size() * 2);
        for (const auto& [pi, w] : cells) {
          const SddId inside = Conjoin(pi, q);
          if (inside != False()) next.push_back({inside, Disjoin(w, u)});
          const SddId outside = Conjoin(pi, Negate(q));
          if (outside != False()) next.push_back({outside, w});
        }
        cells = std::move(next);
      }
      raw = std::move(cells);
    }
    if (interrupted_) {
      AbortEdit(kind, v, child, at_child, mark);
      EndEdit(/*committed=*/false);
      res.aborted = true;
      return res;
    }
    plans.push_back({id, BuildDecision(std::move(raw))});
    if (interrupted_) {
      AbortEdit(kind, v, child, at_child, mark);
      EndEdit(/*committed=*/false);
      res.aborted = true;
      return res;
    }
  }

  // Phase 2 (pure table surgery, no guard charges). Erase every planned
  // node under its old content hash first, then commit: rewritten nodes
  // get their new partitions and re-enter the unique table; nodes whose
  // new canonical form trimmed to an existing node are reclaimed behind a
  // forwarding pointer.
  for (const Plan& plan : plans) {
    unique_.Erase(NodeHash(nodes_[plan.id]), plan.id);
  }
  for (Plan& plan : plans) {
    Node& n = nodes_[plan.id];
    if (plan.built.trimmed != kInvalidSdd) {
      n.forward = plan.built.trimmed;
      n.elements.clear();
      n.elements.shrink_to_fit();
      ++dead_count_;
      ++res.reclaimed;
    } else {
      n.elements = std::move(plan.built.elements);
      unique_.Insert(NodeHash(n), plan.id);
      ++res.rewritten;
    }
  }

  if (res.reclaimed > 0) {
    // Negation links may now cross into reclaimed nodes; re-link the
    // canonical survivors (functions are preserved by forwarding, so the
    // resolved pair really are each other's negations).
    for (const SddId id : at_v) {
      const SddId neg = nodes_[id].negation;
      if (neg == kInvalidSdd) continue;
      if (!IsDead(id) && !IsDead(neg)) continue;
      const SddId rid = Resolve(id);
      const SddId rneg = Resolve(neg);
      if (!IsConstant(rid)) {
        SddId& link = nodes_[rid].negation;
        if (link == kInvalidSdd || IsDead(link)) link = rneg;
      }
      if (!IsConstant(rneg)) {
        SddId& link = nodes_[rneg].negation;
        if (link == kInvalidSdd || IsDead(link)) link = rid;
      }
    }
    // Only nodes labeled at strict ancestors of v can reference v-labeled
    // nodes in their elements; rewrite those references to the survivors.
    // Substitution preserves each element's function, so no re-compression
    // or trimming can trigger — only the content hash changes.
    for (VtreeId anc = vtree_.parent(v); anc != kInvalidVtree;
         anc = vtree_.parent(anc)) {
      for (const SddId id : CollectAt(anc)) {
        Node& n = nodes_[id];
        bool stale = false;
        for (const auto& [p, s] : n.elements) {
          if (IsDead(p) || IsDead(s)) {
            stale = true;
            break;
          }
        }
        if (!stale) continue;
        unique_.Erase(NodeHash(n), id);
        for (auto& [p, s] : n.elements) {
          p = Resolve(p);
          s = Resolve(s);
        }
        std::sort(n.elements.begin(), n.elements.end());
        unique_.Insert(NodeHash(n), id);
      }
    }
  }

  EndEdit(/*committed=*/true);
  res.applied = true;
  if (kind == EditKind::kSwap) {
    TBC_COUNT("sdd.minimize.swaps");
  } else {
    TBC_COUNT("sdd.minimize.rotations");
  }
  TBC_COUNT_N("sdd.minimize.nodes_reclaimed", res.reclaimed);
  return res;
}

SddEditResult SddManager::RotateRightInPlace(VtreeId v) {
  return Edit(EditKind::kRotateRight, v);
}
SddEditResult SddManager::RotateLeftInPlace(VtreeId v) {
  return Edit(EditKind::kRotateLeft, v);
}
SddEditResult SddManager::SwapChildrenInPlace(VtreeId v) {
  return Edit(EditKind::kSwap, v);
}

SddId SddManager::GarbageCollect(SddId root) {
  TBC_CHECK_MSG(!in_edit_, "GarbageCollect may not run inside an edit");
  root = Resolve(root);
  const size_t live_before = live_node_count();
  SddManager fresh(vtree_);
  fresh.auto_minimize_ = auto_minimize_;
  // Replay the reachable DAG into the fresh manager, children first;
  // replayed decisions are already canonical, so MakeDecision re-interns
  // the identical node under a fresh id.
  std::vector<SddId> map(nodes_.size(), kInvalidSdd);
  map[False()] = fresh.False();
  map[True()] = fresh.True();
  ForEachPostorder(root, /*reverse=*/true, [&](SddId g) {
    if (IsConstant(g)) return;
    if (IsLiteral(g)) {
      map[g] = fresh.LiteralNode(literal(g));
      return;
    }
    std::vector<std::pair<SddId, SddId>> elems;
    elems.reserve(nodes_[g].elements.size());
    for (const auto& [p, s] : nodes_[g].elements) {
      elems.push_back({map[Resolve(p)], map[Resolve(s)]});
    }
    map[g] = fresh.MakeDecision(nodes_[g].vtree, std::move(elems));
  });
  const SddId new_root = map[root];
  const size_t fires = auto_minimize_fires_;
  Guard* const held = guard_;
  *this = std::move(fresh);
  guard_ = held;
  auto_minimize_fires_ = fires;
  last_minimized_live_ = live_node_count();
  TBC_COUNT_N("sdd.gc.nodes_dropped", live_before - live_node_count());
  return new_root;
}

SddId SddManager::MaybeAutoMinimize(SddId root) {
  root = Resolve(root);
  if (auto_minimize_.mode == SddMinimizeMode::kOff || interrupted_ ||
      IsConstant(root)) {
    return root;
  }
  const size_t live = live_node_count();
  if (live < auto_minimize_.min_live_nodes) return root;
  const auto floor = static_cast<size_t>(auto_minimize_.growth_ratio *
                                         static_cast<double>(last_minimized_live_));
  if (live < floor) return root;
  TBC_COUNT("sdd.minimize.auto_triggers");
  ++auto_minimize_fires_;
  // Collect before editing (the caller's root is the only outstanding id
  // at a safe point, so the rebuild is legal). Most of the growth that
  // tripped the trigger is dead intermediates; without this the pass
  // spends its per-edit budget rewriting garbage, and its own rewrite
  // generations compound across firings.
  root = GarbageCollect(root);
  const SddInPlaceMinimizeResult pass =
      MinimizeSddInPlace(*this, root, auto_minimize_.ops_per_pass,
                         0x5ddau * 0x9e3779b9u + auto_minimize_fires_);
  if (pass.interrupted) {
    // The outer guard stopped the pass: latch it so the compile loop that
    // called us refuses, exactly as if an Apply had tripped it.
    interrupted_ = true;
    interrupt_status_ = pass.interrupt_status;
  }
  last_minimized_live_ = live_node_count();
  return pass.root;
}

bool SddManager::Evaluate(SddId f, const Assignment& assignment) const {
  std::vector<int8_t> value(nodes_.size(), 0);
  value[True()] = 1;
  ForEachPostorder(f, /*reverse=*/true, [&](SddId g) {
    if (IsConstant(g)) return;
    if (IsLiteral(g)) {
      value[g] = Eval(literal(g), assignment) ? 1 : 0;
      return;
    }
    for (const auto& [p, s] : nodes_[g].elements) {
      if (value[Resolve(p)]) {
        value[g] = value[Resolve(s)];  // exactly one prime is high
        return;
      }
    }
  });
  return value[Resolve(f)] == 1;
}

size_t SddManager::Size(SddId f) const {
  size_t size = 0;
  ForEachPostorder(f, /*reverse=*/true,
                   [&](SddId g) { size += nodes_[g].elements.size(); });
  return size;
}

size_t SddManager::NumDecisionNodes(SddId f) const {
  size_t count = 0;
  ForEachPostorder(f, /*reverse=*/true,
                   [&](SddId g) { count += IsDecision(g) ? 1 : 0; });
  return count;
}

NnfId SddManager::ToNnf(SddId f, NnfManager& nnf) const {
  if (f == False()) return nnf.False();
  if (f == True()) return nnf.True();
  // The walk order is the NNF node-creation order, which fixes the NNF's
  // ids and so the summation order of every query over it.
  std::vector<NnfId> memo(nodes_.size(), kInvalidNnf);
  memo[False()] = nnf.False();
  memo[True()] = nnf.True();
  ForEachPostorder(f, /*reverse=*/true, [&](SddId g) {
    if (IsConstant(g)) return;
    if (IsLiteral(g)) {
      memo[g] = nnf.Literal(literal(g));
      return;
    }
    std::vector<NnfId> parts;
    parts.reserve(nodes_[g].elements.size());
    for (const auto& [p, s] : nodes_[g].elements) {
      parts.push_back(nnf.And(memo[Resolve(p)], memo[Resolve(s)]));
    }
    memo[g] = nnf.Or(std::move(parts));
  });
  return memo[Resolve(f)];
}

BigUint SddManager::ModelCount(SddId f) {
  if (f == False()) return BigUint(0);
  NnfManager nnf;
  const NnfId root = ToNnf(f, nnf);
  return tbc::ModelCount(nnf, root, num_vars());
}

double SddManager::Wmc(SddId f, const WeightMap& weights) {
  TBC_CHECK_MSG(weights.num_vars() == num_vars(),
                "weight map must cover exactly the manager's variables");
  if (f == False()) return 0.0;
  NnfManager nnf;
  return tbc::Wmc(nnf, ToNnf(f, nnf), weights);
}

std::vector<SddFaultAt> CheckSddElements(const Vtree& vtree, VtreeId v,
                                         const std::vector<SddElementRef>& elements,
                                         SddManager* partition) {
  if (vtree.IsLeaf(v)) return {{SddFault::kOnLeaf}};
  if (elements.empty()) return {{SddFault::kNoElements}};
  std::vector<SddFaultAt> faults;
  auto outside = [&](VtreeId under, VtreeId w) {
    return w != kInvalidVtree && !vtree.IsAncestorOrSelf(under, w);
  };
  for (size_t i = 0; i < elements.size(); ++i) {
    const SddElementRef& e = elements[i];
    if (outside(vtree.left(v), e.prime_vtree)) {
      faults.push_back({SddFault::kPrimeNotLeft, i});
    }
    if (outside(vtree.right(v), e.sub_vtree)) {
      faults.push_back({SddFault::kSubNotRight, i});
    }
    if (e.false_prime) faults.push_back({SddFault::kFalsePrime, i});
  }
  if (partition == nullptr) return faults;
  SddManager& mgr = *partition;
  // Strong determinism: each prime misses the union of those before it
  // (pairs are named only when it does not), and the union is ⊤.
  SddId seen = mgr.False();
  for (size_t j = 0; j < elements.size(); ++j) {
    const SddId p = elements[j].prime;
    if (mgr.Conjoin(seen, p) != mgr.False()) {
      for (size_t i = 0; i < j; ++i) {
        if (mgr.Conjoin(elements[i].prime, p) != mgr.False()) {
          faults.push_back({SddFault::kPrimesOverlap, i, j});
        }
      }
    }
    seen = mgr.Disjoin(seen, p);
  }
  if (seen != mgr.True()) faults.push_back({SddFault::kPrimesNotExhaustive});
  return faults;
}

std::vector<SddFaultAt> CheckSddLiteral(const Vtree& vtree, VtreeId v, Lit lit) {
  if (v == vtree.LeafOfVar(lit.var())) return {};
  return {{SddFault::kLiteralOffLeaf, size_t{lit.var()} + 1}};
}

const char* SddFaultMessage(SddFault fault) {
  static constexpr const char* kText[] = {
      "literal node does not sit on its variable's vtree leaf",
      "decision node respects a vtree leaf",
      "decision node with an empty partition",
      "prime is not over the left vtree of its decision node",
      "sub is not over the right vtree of its decision node",
      "false prime",
      "primes overlap (strong determinism broken)",
      "primes are not exhaustive over the left vtree",
  };
  return kText[static_cast<size_t>(fault)];
}

std::string SddFaultWitness(const SddFaultAt& f) {
  if (f.fault == SddFault::kLiteralOffLeaf) return "variable " + std::to_string(f.i);
  if (f.fault == SddFault::kPrimesOverlap) {
    return "elements " + std::to_string(f.i) + " and " + std::to_string(f.j);
  }
  if (f.fault >= SddFault::kPrimeNotLeft && f.fault <= SddFault::kFalsePrime) {
    return "element " + std::to_string(f.i);
  }
  return "";
}

}  // namespace tbc
