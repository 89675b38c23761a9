#include "nnf/nnf.h"

#include <algorithm>

#include "base/check.h"
#include "base/hash.h"
#include "base/observability.h"

namespace tbc {

std::vector<Var> MissingVars(const std::vector<uint64_t>& big,
                             const std::vector<uint64_t>& small) {
  std::vector<Var> out;
  for (size_t w = 0; w < big.size(); ++w) {
    uint64_t diff = big[w] & ~(w < small.size() ? small[w] : 0);
    while (diff != 0) {
      out.push_back(static_cast<Var>(64 * w + __builtin_ctzll(diff)));
      diff &= diff - 1;
    }
  }
  return out;
}

NnfManager::NnfManager() {
  nodes_.push_back({Kind::kFalse, 0, {}});  // id 0
  nodes_.push_back({Kind::kTrue, 0, {}});   // id 1
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

NnfId NnfManager::Intern(Kind kind, uint32_t payload,
                         Span<const NnfId> children) {
  // Interning dedups against the overlay only: mapped-base nodes are never
  // indexed (see FromMapped). A duplicate of a base node costs one overlay
  // slot, never correctness.
  uint64_t h = HashCombine(0, static_cast<size_t>(kind));
  h = HashCombine(h, payload);
  for (NnfId c : children) h = HashCombine(h, c);
  h = HashU64(h);
  const uint32_t found = index_.Find(h, [&](uint32_t id) {
    const Node& n = nodes_[id - base_.num_nodes];
    return n.kind == kind && n.payload == payload &&
           Span<const NnfId>(n.children) == children;
  });
  if (found != UniqueTable::kNpos) {
    TBC_COUNT("nnf.unique.hits");
    return found;
  }
  TBC_COUNT("nnf.nodes.created");
  const NnfId id = static_cast<NnfId>(base_.num_nodes + nodes_.size());
  nodes_.push_back({kind, payload, children.ToVector()});
  index_.Insert(h, id);
  return id;
}

NnfId NnfManager::Literal(Lit l) {
  TBC_DCHECK(l.valid());
  num_vars_ = std::max(num_vars_, static_cast<size_t>(l.var()) + 1);
  return Intern(Kind::kLiteral, l.code(), {});
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
  return Intern(kind, 0, kids);
}

NnfId NnfManager::Decision(Var v, NnfId hi, NnfId lo) {
  if (hi == lo) return hi;
  return Or(And(Literal(Pos(v)), hi), And(Literal(Neg(v)), lo));
}

std::vector<NnfId> NnfManager::TopologicalOrder(NnfId root) const {
  // Node ids grow children-before-parents by construction, so collecting
  // the reachable set and sorting by id is a topological order.
  std::vector<NnfId> order;
  std::vector<int8_t> seen(num_nodes(), 0);
  std::vector<NnfId> stack = {root};
  while (!stack.empty()) {
    NnfId cur = stack.back();
    stack.pop_back();
    if (seen[cur]) continue;
    seen[cur] = 1;
    order.push_back(cur);
    for (NnfId c : children(cur)) stack.push_back(c);
  }
  std::sort(order.begin(), order.end());
  return order;
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
  plan->root_vars = VarSet(root);  // warms every varset below root
  plan->schedule = Schedule(root);
  const LevelSchedule& s = plan->schedule;
  plan->edge_begin.reserve(s.order.size() + 1);
  plan->gap_begin.push_back(0);
  for (NnfId n : s.order) {
    plan->edge_begin.push_back(static_cast<uint32_t>(plan->gap_begin.size() - 1));
    if (kind(n) != Kind::kOr) continue;
    const std::vector<uint64_t>& gate_vars = VarSet(n);
    for (NnfId c : children(n)) {
      const std::vector<Var> gap = MissingVars(gate_vars, VarSet(c));
      plan->gap_vars.insert(plan->gap_vars.end(), gap.begin(), gap.end());
      TBC_CHECK_MSG(plan->gap_vars.size() <= UINT32_MAX, "gap plan too large");
      plan->gap_begin.push_back(static_cast<uint32_t>(plan->gap_vars.size()));
    }
  }
  plan->edge_begin.push_back(static_cast<uint32_t>(plan->gap_begin.size() - 1));
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
  std::vector<int8_t> value(num_nodes(), -1);
  for (NnfId n : TopologicalOrder(root)) {
    switch (kind(n)) {
      case Kind::kFalse:
        value[n] = 0;
        break;
      case Kind::kTrue:
        value[n] = 1;
        break;
      case Kind::kLiteral:
        value[n] = Eval(lit(n), assignment) ? 1 : 0;
        break;
      case Kind::kAnd: {
        int8_t v = 1;
        for (NnfId c : children(n)) v = static_cast<int8_t>(v & value[c]);
        value[n] = v;
        break;
      }
      case Kind::kOr: {
        int8_t v = 0;
        for (NnfId c : children(n)) v = static_cast<int8_t>(v | value[c]);
        value[n] = v;
        break;
      }
    }
  }
  return value[root] == 1;
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

const std::vector<uint64_t>& NnfManager::VarSet(NnfId root) {
  if (varset_ready_.size() < num_nodes()) {
    varset_ready_.resize(num_nodes(), 0);
    varset_cache_.resize(num_nodes());
  }
  const size_t words = (num_vars_ + 63) / 64;
  if (varset_ready_[root] && varset_cache_[root].size() == words) {
    return varset_cache_[root];
  }
  for (NnfId n : TopologicalOrder(root)) {
    if (varset_ready_[n] && varset_cache_[n].size() == words) continue;
    std::vector<uint64_t> set(words, 0);
    if (kind(n) == Kind::kLiteral) {
      const Var v = lit(n).var();
      set[v / 64] |= 1ull << (v % 64);
    } else {
      for (NnfId c : children(n)) {
        const std::vector<uint64_t>& cs = varset_cache_[c];
        for (size_t w = 0; w < words; ++w) set[w] |= cs[w];
      }
    }
    varset_cache_[n] = std::move(set);
    varset_ready_[n] = 1;
  }
  return varset_cache_[root];
}

size_t NnfManager::NumVarsBelow(NnfId root) {
  size_t count = 0;
  for (uint64_t w : VarSet(root)) count += static_cast<size_t>(__builtin_popcountll(w));
  return count;
}

}  // namespace tbc
