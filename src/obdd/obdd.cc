#include "obdd/obdd.h"

#include <algorithm>

#include "base/check.h"
#include "base/hash.h"
#include "base/levelize.h"
#include "base/observability.h"

#ifdef TBC_CERTIFY
#include "certify/emit.h"
#endif

namespace tbc {

namespace {
constexpr uint32_t kTermLevel = static_cast<uint32_t>(-1);
}  // namespace

ObddManager::ObddManager(std::vector<Var> order) : order_(std::move(order)) {
  Var max_var = 0;
  for (Var v : order_) max_var = std::max(max_var, v);
  level_of_var_.assign(max_var + 1, kTermLevel);
  for (uint32_t i = 0; i < order_.size(); ++i) {
    TBC_CHECK_MSG(level_of_var_[order_[i]] == kTermLevel,
                  "variable appears twice in OBDD order");
    level_of_var_[order_[i]] = i;
  }
  TBC_CHECK_MSG(order_.empty() || max_var < order_.size(),
                "OBDD order must be a permutation of 0..n-1");
  // Terminals occupy ids 0 and 1 with a sentinel variable.
  nodes_.push_back({kInvalidVar, 0, 0});
  nodes_.push_back({kInvalidVar, 1, 1});
}

ObddId ObddManager::MakeNode(Var v, ObddId lo, ObddId hi) {
  if (lo == hi) return lo;  // node elimination (reduction rule)
  TBC_DCHECK(level_of_var_[v] != kTermLevel);
  TBC_DCHECK(IsTerminal(lo) || LevelOf(nodes_[lo].var) > LevelOf(v));
  TBC_DCHECK(IsTerminal(hi) || LevelOf(nodes_[hi].var) > LevelOf(v));
  const uint64_t key = HashU64(HashCombine(HashCombine(HashU64(v), lo), hi));
  const uint32_t found = unique_.Find(key, [&](uint32_t id) {
    const Node& n = nodes_[id];
    return n.var == v && n.lo == lo && n.hi == hi;
  });
  if (found != UniqueTable::kNpos) {
    TBC_COUNT("obdd.unique.hits");
    return found;
  }
  TBC_COUNT("obdd.nodes.created");
  const ObddId id = static_cast<ObddId>(nodes_.size());
  nodes_.push_back({v, lo, hi});
  unique_.Insert(key, id);
  return id;
}

ObddId ObddManager::LiteralNode(Lit l) {
  return l.positive() ? MakeNode(l.var(), False(), True())
                      : MakeNode(l.var(), True(), False());
}

bool ObddManager::TerminalCase(Op op, ObddId f, ObddId g, ObddId* out) {
  switch (op) {
    case Op::kAnd:
      if (f == 0 || g == 0) return *out = 0, true;
      if (f == 1) return *out = g, true;
      if (g == 1) return *out = f, true;
      if (f == g) return *out = f, true;
      return false;
    case Op::kOr:
      if (f == 1 || g == 1) return *out = 1, true;
      if (f == 0) return *out = g, true;
      if (g == 0) return *out = f, true;
      if (f == g) return *out = f, true;
      return false;
    case Op::kXor:
      if (f == g) return *out = 0, true;
      if (f == 0) return *out = g, true;
      if (g == 0) return *out = f, true;
      return false;
    default:
      return false;
  }
}

ObddId ObddManager::Apply(Op op, ObddId f, ObddId g) {
  ObddId out;
  if (TerminalCase(op, f, g, &out)) return out;
  // Xor with terminal 1 handled by recursion; normalize commutative args.
  if (f > g) std::swap(f, g);
  TBC_COUNT("obdd.apply.calls");
  const OpKey key{f | (static_cast<uint64_t>(g) << 32),
                  static_cast<uint32_t>(op)};
  if (const ObddId* hit = op_cache_.Find(key)) {
    TBC_COUNT("obdd.apply.cache_hits");
    return *hit;
  }
  TBC_COUNT("obdd.apply.cache_misses");

  const uint32_t lf = IsTerminal(f) ? kTermLevel : LevelOf(nodes_[f].var);
  const uint32_t lg = IsTerminal(g) ? kTermLevel : LevelOf(nodes_[g].var);
  const uint32_t top = std::min(lf, lg);
  const Var v = order_[top];
  const ObddId f0 = lf == top ? nodes_[f].lo : f;
  const ObddId f1 = lf == top ? nodes_[f].hi : f;
  const ObddId g0 = lg == top ? nodes_[g].lo : g;
  const ObddId g1 = lg == top ? nodes_[g].hi : g;
  const ObddId r = MakeNode(v, Apply(op, f0, g0), Apply(op, f1, g1));
  op_cache_.Insert(key, r);
  // Record after the recursion so a step's operands always precede it in
  // the sink (the checker verifies steps in order). Only conjunctions are
  // certified; CompileCnf builds clause OBDDs literal-by-literal with Or,
  // and the checker derives those directly from the input clause instead.
  if (trace_ != nullptr && op == Op::kAnd) trace_->steps.push_back({f, g, r});
  return r;
}

ObddId ObddManager::And(ObddId f, ObddId g) { return Apply(Op::kAnd, f, g); }
ObddId ObddManager::Or(ObddId f, ObddId g) { return Apply(Op::kOr, f, g); }
ObddId ObddManager::Xor(ObddId f, ObddId g) { return Apply(Op::kXor, f, g); }

ObddId ObddManager::Not(ObddId f) {
  if (f == 0) return 1;
  if (f == 1) return 0;
  const OpKey key{f, static_cast<uint32_t>(Op::kNot)};
  if (const ObddId* hit = op_cache_.Find(key)) return *hit;
  const ObddId r = MakeNode(nodes_[f].var, Not(nodes_[f].lo), Not(nodes_[f].hi));
  op_cache_.Insert(key, r);
  return r;
}

ObddId ObddManager::Ite(ObddId f, ObddId g, ObddId h) {
  return Or(And(f, g), And(Not(f), h));
}

ObddId ObddManager::Restrict(ObddId f, Var v, bool value) {
  if (IsTerminal(f)) return f;
  const uint32_t lv = LevelOf(v);
  const uint32_t lf = LevelOf(nodes_[f].var);
  if (lf > lv) return f;  // v does not occur below f
  if (lf == lv) return value ? nodes_[f].hi : nodes_[f].lo;
  // Tags 0..3 are Ops; Restrict uses 4 + literal code.
  const OpKey key{f, 4u + 2u * v + (value ? 1u : 0u)};
  if (const ObddId* hit = op_cache_.Find(key)) return *hit;
  const ObddId r = MakeNode(nodes_[f].var, Restrict(nodes_[f].lo, v, value),
                            Restrict(nodes_[f].hi, v, value));
  op_cache_.Insert(key, r);
  return r;
}

ObddId ObddManager::Exists(ObddId f, Var v) {
  return Or(Restrict(f, v, false), Restrict(f, v, true));
}

ObddId ObddManager::Forall(ObddId f, Var v) {
  return And(Restrict(f, v, false), Restrict(f, v, true));
}

ObddId ObddManager::Compose(ObddId f, Var v, ObddId g) {
  return Ite(g, Restrict(f, v, true), Restrict(f, v, false));
}

bool ObddManager::Evaluate(ObddId f, const Assignment& assignment) const {
  while (!IsTerminal(f)) {
    const Node& n = nodes_[f];
    TBC_DCHECK(n.var < assignment.size());
    f = assignment[n.var] ? n.hi : n.lo;
  }
  return f == 1;
}

std::vector<ObddId> ObddManager::ReachableAscending(ObddId f) const {
  // A terminal's lo and hi are the terminal itself.
  return tbc::ReachableAscending(f, [this](ObddId g, auto&& visit) {
    visit(nodes_[g].lo);
    visit(nodes_[g].hi);
  });
}

uint32_t ObddManager::NodeLevel(ObddId g) const {
  return IsTerminal(g) ? static_cast<uint32_t>(order_.size())
                       : LevelOf(nodes_[g].var);
}

BigUint ObddManager::ModelCount(ObddId f) {
  // count[g] = models of g over the levels from g's own down; an edge that
  // skips k levels doubles its child's count k times. Ascending ids put
  // children first.
  std::vector<BigUint> count(nodes_.size());
  count[1] = BigUint(1);
  for (const ObddId g : ReachableAscending(f)) {
    if (IsTerminal(g)) continue;
    const Node& n = nodes_[g];
    const uint32_t below = LevelOf(n.var) + 1;
    count[g].AddShifted(count[n.lo], NodeLevel(n.lo) - below);
    count[g].AddShifted(count[n.hi], NodeLevel(n.hi) - below);
  }
  BigUint total;
  total.AddShifted(count[f], NodeLevel(f));
  return total;
}

double ObddManager::Wmc(ObddId f, const WeightMap& weights) {
  TBC_CHECK_MSG(weights.num_vars() == num_vars(),
                "weight map must cover exactly the manager's variables");
  // The variable of a level an edge skips is free: W(x) + W(¬x).
  // to_terminal[i] is the factor of levels i.. down to the terminals,
  // which most long skips end at.
  const size_t num_levels = order_.size();
  std::vector<double> level_sum(num_levels);
  std::vector<double> to_terminal(num_levels + 1, 1.0);
  for (size_t i = num_levels; i-- > 0;) {
    level_sum[i] = weights[Pos(order_[i])] + weights[Neg(order_[i])];
    to_terminal[i] = level_sum[i] * to_terminal[i + 1];
  }
  auto skip = [&](uint32_t from, uint32_t to) {
    if (to == num_levels) return to_terminal[from];
    double r = 1.0;
    for (uint32_t i = from; i < to; ++i) r *= level_sum[i];
    return r;
  };
  // value[g] = weight of g over the levels from g's own down.
  std::vector<double> value(nodes_.size(), 0.0);
  value[1] = 1.0;
  for (const ObddId g : ReachableAscending(f)) {
    if (IsTerminal(g)) continue;
    const Node& n = nodes_[g];
    const uint32_t below = LevelOf(n.var) + 1;
    value[g] =
        weights[Neg(n.var)] * value[n.lo] * skip(below, NodeLevel(n.lo)) +
        weights[Pos(n.var)] * value[n.hi] * skip(below, NodeLevel(n.hi));
  }
  return value[f] * skip(0, NodeLevel(f));
}

void ObddManager::EnumerateModels(
    ObddId f, const std::function<void(const Assignment&)>& on_model) {
  Assignment a(order_.size() > 0 ? *std::max_element(order_.begin(), order_.end()) + 1
                                 : 0,
               false);
  std::function<void(ObddId, uint32_t)> rec = [&](ObddId g, uint32_t level) {
    if (g == 0) return;
    const uint32_t gl =
        IsTerminal(g) ? static_cast<uint32_t>(order_.size()) : LevelOf(nodes_[g].var);
    if (level < gl) {
      // Free variable at this level: branch both ways.
      const Var v = order_[level];
      a[v] = false;
      rec(g, level + 1);
      a[v] = true;
      rec(g, level + 1);
      a[v] = false;
      return;
    }
    if (g == 1) {
      on_model(a);
      return;
    }
    const Node& n = nodes_[g];
    a[n.var] = false;
    rec(n.lo, level + 1);
    a[n.var] = true;
    rec(n.hi, level + 1);
    a[n.var] = false;
  };
  rec(f, 0);
}

size_t ObddManager::Size(ObddId f) const {
  return ReachableAscending(f).size();
}

NnfId ObddManager::ToNnf(ObddId f, NnfManager& nnf) const {
  std::vector<NnfId> memo(nodes_.size(), kInvalidNnf);
  memo[0] = nnf.False();
  memo[1] = nnf.True();
  for (const ObddId g : ReachableAscending(f)) {
    if (IsTerminal(g)) continue;
    const Node& n = nodes_[g];
    memo[g] = nnf.Decision(n.var, memo[n.hi], memo[n.lo]);
  }
  return memo[f];
}

// Conjoins the clause OBDDs, clauses sorted by their deepest variable so
// the conjunction grows locally. The plain and traced compile paths share
// this loop so both conjoin in the same order; `chain` (nullable) receives
// one link per conjoined clause.
static ObddId ConjoinClauses(ObddManager& mgr, const Cnf& cnf,
                             std::vector<ObddChainLink>* chain) {
  std::vector<size_t> idx(cnf.num_clauses());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  auto max_level = [&](size_t i) {
    uint32_t m = 0;
    for (Lit l : cnf.clause(i)) m = std::max(m, mgr.LevelOf(l.var()));
    return m;
  };
  std::sort(idx.begin(), idx.end(),
            [&](size_t a, size_t b) { return max_level(a) < max_level(b); });
  ObddId acc = mgr.True();
  for (size_t i : idx) {
    ObddId clause = mgr.False();
    for (Lit l : cnf.clause(i)) clause = mgr.Or(clause, mgr.LiteralNode(l));
    acc = mgr.And(acc, clause);
    if (chain != nullptr) {
      chain->push_back({static_cast<uint32_t>(i), clause, acc});
    }
    if (acc == mgr.False()) break;
  }
  return acc;
}

ObddId ObddManager::CompileCnf(const Cnf& cnf) {
#ifdef TBC_CERTIFY
  // Certify-every-compile mode: run the traced path and check the result
  // before handing it back.
  ObddTrace trace;
  const ObddId root = CompileCnfTraced(cnf, &trace);
  CertifyObddOrDie(cnf, *this, std::move(trace), "ObddManager::CompileCnf");
  return root;
#else
  return ConjoinClauses(*this, cnf, nullptr);
#endif
}

ObddId ObddManager::CompileCnfTraced(const Cnf& cnf, ObddTrace* trace) {
  ObddTraceSink sink;
  ObddTraceSink* const saved = trace_;
  set_trace(&sink);
  const ObddId acc = ConjoinClauses(*this, cnf, &trace->chain);
  set_trace(saved);
  trace->order = order_;
  trace->nodes.resize(nodes_.size());
  for (size_t n = 0; n < nodes_.size(); ++n) {
    trace->nodes[n] = {nodes_[n].var, nodes_[n].lo, nodes_[n].hi};
  }
  trace->steps = std::move(sink.steps);
  trace->root = acc;
  return acc;
}

ObddId ObddManager::CompileFormula(const FormulaStore& store, FormulaId f) {
  return store.Fold<ObddId>(
      f,
      [&](FormulaId g) {
        if (store.kind(g) == FormulaStore::Kind::kVar) {
          return LiteralNode(Pos(store.var(g)));
        }
        return g == store.True() ? True() : False();
      },
      [&](ObddId g) { return Not(g); },
      [&](FormulaStore::Kind kind, ObddId acc, ObddId g) {
        return kind == FormulaStore::Kind::kAnd ? And(acc, g) : Or(acc, g);
      });
}

bool ObddManager::IsMonotoneIn(ObddId f, Var v) {
  const ObddId f0 = Restrict(f, v, false);
  const ObddId f1 = Restrict(f, v, true);
  return Implies(f0, f1) == True();
}

}  // namespace tbc
