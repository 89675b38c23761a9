#include "nnf/nnf.h"

#include <algorithm>

#include "base/check.h"
#include "base/hash.h"
#include "base/observability.h"
#include "nnf/upward.h"

namespace tbc {

void AppendMissingVars(Span<const uint64_t> big, Span<const uint64_t> small,
                       std::vector<Var>& out) {
  for (size_t w = 0; w < big.size(); ++w) {
    uint64_t diff = big[w] & ~(w < small.size() ? small[w] : 0);
    for (; diff != 0; diff &= diff - 1) {
      out.push_back(static_cast<Var>(64 * w + __builtin_ctzll(diff)));
    }
  }
}

namespace {

// Writes the variable set of node `n` into out[0 .. words): a literal's
// own variable, or the union of the children's sets, each read at
// set_of(child). The one bitset routine behind VarSet() and the gap plan.
template <typename SetOf>
void FillVarSet(const NnfManager& mgr, NnfId n, uint64_t* out, size_t words,
                SetOf&& set_of) {
  std::fill_n(out, words, 0);
  if (mgr.kind(n) == NnfManager::Kind::kLiteral) {
    const Var v = mgr.lit(n).var();
    out[v / 64] |= 1ull << (v % 64);
    return;
  }
  for (NnfId c : mgr.children(n)) {
    const uint64_t* cs = set_of(c);
    for (size_t w = 0; w < words; ++w) out[w] |= cs[w];
  }
}

}  // namespace

NnfManager::NnfManager() {
  Append(Kind::kFalse, 0, {});  // id 0
  Append(Kind::kTrue, 0, {});   // id 1
}

NnfManager::NnfManager(MappedCircuit base, int) : base_(std::move(base)) {
  // The mapped table provides the ⊥/⊤ convention ids itself (validated by
  // the store layer); the overlay starts empty and ids continue past the
  // mapped range.
  num_vars_ = base_.num_vars;
}

std::unique_ptr<NnfManager> NnfManager::FromMapped(MappedCircuit base) {
  TBC_CHECK(base.num_nodes >= 2);
  return std::unique_ptr<NnfManager>(new NnfManager(std::move(base), 0));
}

NnfId NnfManager::Append(Kind kind, uint32_t payload,
                         Span<const NnfId> children) {
  const NnfId id = static_cast<NnfId>(num_nodes());
  kinds_.push_back(static_cast<uint8_t>(kind));
  payloads_.push_back(payload);
  children_.insert(children_.end(), children.begin(), children.end());
  child_begin_.push_back(children_.size());
  return id;
}

NnfId NnfManager::Intern(Kind kind, Span<const NnfId> children) {
  // Interning dedups against the overlay only: mapped-base nodes are never
  // indexed (see FromMapped). A duplicate of a base node costs one overlay
  // slot, never correctness.
  uint64_t h = HashCombine(0, static_cast<size_t>(kind));
  for (NnfId c : children) h = HashCombine(h, c);
  h = HashU64(h);
  const uint32_t found = index_.Find(h, [&](uint32_t id) {
    return this->kind(id) == kind && this->children(id) == children;
  });
  if (found != UniqueTable::kNpos) {
    TBC_COUNT("nnf.unique.hits");
    return found;
  }
  TBC_COUNT("nnf.nodes.created");
  const NnfId id = Append(kind, 0, children);
  index_.Insert(h, id);
  return id;
}

NnfId NnfManager::Literal(Lit l) {
  TBC_DCHECK(l.valid());
  num_vars_ = std::max(num_vars_, static_cast<size_t>(l.var()) + 1);
  if (l.code() >= literal_nodes_.size()) {
    literal_nodes_.resize(2 * (static_cast<size_t>(l.var()) + 1), kInvalidNnf);
  }
  NnfId& node = literal_nodes_[l.code()];
  if (node != kInvalidNnf) {
    TBC_COUNT("nnf.unique.hits");
    return node;
  }
  TBC_COUNT("nnf.nodes.created");
  node = Append(Kind::kLiteral, l.code(), {});
  return node;
}

NnfId NnfManager::Gate(Kind kind, Span<const NnfId> children) {
  // ⊥ absorbs an and-gate and is dropped from an or-gate; ⊤ the reverse.
  const NnfId absorbing = kind == Kind::kAnd ? False() : True();
  const NnfId unit = kind == Kind::kAnd ? True() : False();
  std::vector<NnfId>& kids = gate_scratch_;
  kids.clear();
  for (NnfId c : children) {
    if (c == absorbing) return absorbing;
    if (c == unit) continue;
    if (this->kind(c) == kind) {
      for (NnfId g : this->children(c)) kids.push_back(g);
    } else {
      kids.push_back(c);
    }
  }
  std::sort(kids.begin(), kids.end());
  kids.erase(std::unique(kids.begin(), kids.end()), kids.end());
  if (kids.empty()) return unit;
  if (kids.size() == 1) return kids[0];
  return Intern(kind, kids);
}

NnfId NnfManager::Decision(Var v, NnfId hi, NnfId lo) {
  if (hi == lo) return hi;
  return Or(And(Literal(Pos(v)), hi), And(Literal(Neg(v)), lo));
}

std::vector<NnfId> NnfManager::TopologicalOrder(NnfId root) const {
  return ReachableAscending(root, [this](uint32_t n, auto&& visit) {
    for (NnfId c : children(n)) visit(c);
  });
}

LevelSchedule NnfManager::Schedule(NnfId root) const {
  return Levelize(num_nodes(), root, [this](uint32_t n, auto&& visit) {
    for (NnfId c : children(n)) visit(c);
  });
}

const GapPlan& NnfManager::GapPlanCached(NnfId root) {
  if (const uint32_t* slot = gap_plan_index_.Find(root)) {
    return *gap_plans_[*slot];
  }
  auto plan = std::make_unique<GapPlan>();
  plan->schedule = Schedule(root);
  const LevelSchedule& s = plan->schedule;
  const size_t words = (num_vars_ + 63) / 64;
  // Rank-indexed variable sets: children sit on earlier levels, so one
  // walk in schedule order fills every set before a parent reads it.
  std::vector<uint64_t> sets(s.order.size() * words);
  const auto set_of = [&](NnfId c) { return sets.data() + s.rank[c] * words; };
  plan->edge_begin.reserve(s.order.size() + 1);
  plan->gap_begin.push_back(0);
  for (size_t i = 0; i < s.order.size(); ++i) {
    const NnfId n = s.order[i];
    uint64_t* set = sets.data() + i * words;
    FillVarSet(*this, n, set, words, set_of);
    plan->edge_begin.push_back(static_cast<uint32_t>(plan->gap_begin.size() - 1));
    if (kind(n) != Kind::kOr) continue;
    for (NnfId c : children(n)) {
      AppendMissingVars({set, words}, {set_of(c), words}, plan->gap_vars);
      TBC_CHECK_MSG(plan->gap_vars.size() <= UINT32_MAX, "gap plan too large");
      plan->gap_begin.push_back(static_cast<uint32_t>(plan->gap_vars.size()));
    }
  }
  plan->edge_begin.push_back(static_cast<uint32_t>(plan->gap_begin.size() - 1));
  const uint64_t* root_set = set_of(root);
  plan->root_vars.assign(root_set, root_set + words);
  gap_plans_.push_back(std::move(plan));
  gap_plan_index_.Insert(root, static_cast<uint32_t>(gap_plans_.size() - 1));
  return *gap_plans_.back();
}

size_t NnfManager::CircuitSize(NnfId root) const {
  size_t edges = 0;
  for (NnfId n : TopologicalOrder(root)) edges += children(n).size();
  return edges;
}

size_t NnfManager::NumNodesBelow(NnfId root) const {
  return TopologicalOrder(root).size();
}

bool NnfManager::Evaluate(NnfId root, const Assignment& assignment) const {
  return internal::Fold(*this, root, internal::TruthAlgebra{[&](Lit l) {
           return Eval(l, assignment);
         }}) == 1;
}

NnfId NnfManager::Condition(NnfId root, Lit l) {
  return RewriteLiterals(root, [&](NnfId n) {
    const Lit x = lit(n);
    return x == l ? True() : (x == ~l ? False() : n);
  });
}

NnfId NnfManager::RewriteLiterals(NnfId root,
                                  const std::function<NnfId(NnfId)>& rewrite) {
  // Dense memo indexed by original node id; And/Or below may append nodes,
  // but only pre-existing ids are ever looked up.
  std::vector<NnfId> memo(num_nodes(), kInvalidNnf);
  for (NnfId n : TopologicalOrder(root)) {
    const Kind k = kind(n);
    if (k == Kind::kLiteral) {
      memo[n] = rewrite(n);
    } else if (k == Kind::kFalse || k == Kind::kTrue) {
      memo[n] = n;
    } else {
      // Copy: And/Or below may reallocate the overlay under the view.
      std::vector<NnfId> kids = children(n).ToVector();
      for (NnfId& c : kids) c = memo[c];
      memo[n] = k == Kind::kAnd ? And(std::move(kids)) : Or(std::move(kids));
    }
  }
  return memo[root];
}

Span<const uint64_t> NnfManager::VarSet(NnfId root) {
  const size_t words = (num_vars_ + 63) / 64;
  if (words != varset_words_) {
    varset_words_ = words;
    varsets_.clear();
    varset_filled_.clear();
  }
  if (root >= varset_filled_.size() || !varset_filled_[root]) {
    // The arena grows only when nodes were created since the last fill, so
    // views of filled sets survive until the next node creation. Only the
    // unfilled part of root's subcircuit is filled, children first.
    varsets_.resize(num_nodes() * words);
    varset_filled_.resize(num_nodes(), 0);
    for (NnfId n : TopologicalOrder(root)) {
      if (varset_filled_[n]) continue;
      FillVarSet(*this, n, varsets_.data() + static_cast<size_t>(n) * words,
                 words, [&](NnfId c) { return varsets_.data() + c * words; });
      varset_filled_[n] = 1;
    }
  }
  return {varsets_.data() + static_cast<size_t>(root) * words, words};
}

size_t NnfManager::NumVarsBelow(NnfId root) {
  size_t count = 0;
  for (uint64_t w : VarSet(root)) count += static_cast<size_t>(__builtin_popcountll(w));
  return count;
}

}  // namespace tbc
