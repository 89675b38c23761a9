#include "certify/checker.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/rules.h"
#include "analysis/tseitin.h"
#include "base/check.h"
#include "base/observability.h"
#include "base/timer.h"
#include "certify/up_engine.h"

namespace tbc {

namespace {

size_t PopCount(const std::vector<uint64_t>& mask) {
  size_t n = 0;
  for (uint64_t w : mask) n += static_cast<size_t>(__builtin_popcountll(w));
  return n;
}

// First variable set in `mask` (for witnesses); kInvalidVar when empty.
Var FirstVar(const std::vector<uint64_t>& mask) {
  for (size_t w = 0; w < mask.size(); ++w) {
    if (mask[w] != 0) {
      return static_cast<Var>(64 * w + __builtin_ctzll(mask[w]));
    }
  }
  return kInvalidVar;
}

std::string ModelWitness(const std::vector<int8_t>& model,
                         size_t num_input_vars) {
  std::string out;
  const size_t cap = std::min<size_t>(num_input_vars, 16);
  for (Var v = 0; v < cap; ++v) {
    if (!out.empty()) out += " ";
    out += Lit(v, v < model.size() && model[v] > 0).ToString();
  }
  if (num_input_vars > cap) out += " ...";
  return out;
}

// Shared budget/engine plumbing for both certificate families.
class CheckerBase {
 public:
  CheckerBase(const Certificate& cert, const CertifyOptions& options,
              CertifyResult* result)
      : cert_(cert),
        options_(options),
        result_(result),
        report_(result->report),
        work_(options.max_work) {}

 protected:
  // Consumes one unit of probe/replay budget; reports certify.budget once
  // on exhaustion and returns false thereafter.
  bool Charge() {
    if (work_ == 0) {
      if (!budget_reported_) {
        report_.Add(Severity::kError, rules::kCertifyBudget, 0, "",
                    "verification budget exhausted (max_work=" +
                        std::to_string(options_.max_work) + ")");
        budget_reported_ = true;
      }
      return false;
    }
    --work_;
    return true;
  }

  const Certificate& cert_;
  const CertifyOptions& options_;
  CertifyResult* result_;
  DiagnosticReport& report_;
  uint64_t work_;
  bool budget_reported_ = false;
};

// Checks d-DNNF and SDD certificates: the circuit is an NNF node table and
// CNF |= circuit goes by trace replay (d-DNNF) or trusted DPLL (no trace).
class NnfCertChecker : CheckerBase {
 public:
  NnfCertChecker(const Certificate& cert, const CertifyOptions& options,
                 CertifyResult* result)
      : CheckerBase(cert, options, result), mgr_(cert.nnf) {}

  void Run() {
    ComputeUsed();
    if (!CheckStructure()) return;
    ComputeVarSets();
    if (!CheckDecomposable()) return;  // dir-1 and count both rely on it
    BuildEngines();
    CheckCircuitImpliesCnf();
    CheckCnfImpliesCircuit();
    if (options_.check_count && CheckDeterministic()) CertifyCount();
  }

 private:
  // Two node sets drive the check. `reachable_`: nodes under the root —
  // decomposability, determinism, dir-1 and the count range over exactly
  // these. `used_`: reachable plus everything the trace mentions (dead
  // branches, cached components), closed under children — structure
  // validation and the Tseitin definitions must cover these so replay can
  // reference their gates. Nodes outside `used_` (stale entries from a
  // reused manager) are ignored entirely.
  void ComputeUsed() {
    reachable_.assign(mgr_.num_nodes(), 0);
    used_.assign(mgr_.num_nodes(), 0);
    std::vector<NnfId> stack;
    const auto close = [&](std::vector<char>& mark) {
      while (!stack.empty()) {
        const NnfId n = stack.back();
        stack.pop_back();
        if (mgr_.kind(n) != NnfManager::Kind::kAnd &&
            mgr_.kind(n) != NnfManager::Kind::kOr) {
          continue;
        }
        for (NnfId c : mgr_.children(n)) {
          if (!mark[c]) {
            mark[c] = 1;
            stack.push_back(c);
          }
        }
      }
    };
    reachable_[cert_.root] = 1;
    stack.push_back(cert_.root);
    close(reachable_);
    const auto mark_used = [&](NnfId n) {
      if (n != kInvalidNnf && !used_[n]) {
        used_[n] = 1;
        stack.push_back(n);
      }
    };
    mark_used(cert_.root);
    mark_used(cert_.ddnnf.top.node);
    for (const CertComp& comp : cert_.ddnnf.comps) {
      mark_used(comp.node);
      mark_used(comp.hi.node);
      mark_used(comp.lo.node);
    }
    close(used_);
    for (NnfId n = 0; n < mgr_.num_nodes(); ++n) {
      if (reachable_[n]) reachable_list_.push_back(n);
      if (used_[n]) used_list_.push_back(n);
    }
  }

  bool CheckStructure() {
    // Literal variables must live in the CNF's variable universe: the count
    // is defined over it, and the Tseitin encoding allocates gate variables
    // right above it (an out-of-range literal would alias a gate).
    for (NnfId n : used_list_) {
      if (mgr_.kind(n) == NnfManager::Kind::kLiteral &&
          mgr_.lit(n).var() >= cert_.cnf.num_vars()) {
        report_.Add(Severity::kError, rules::kCertifyFormat, n,
                    "var " + std::to_string(mgr_.lit(n).var() + 1),
                    "literal variable outside the CNF universe");
        return false;
      }
    }
    return true;
  }

  void ComputeVarSets() {
    words_ = (cert_.cnf.num_vars() + 63) / 64;
    varsets_.assign(mgr_.num_nodes(), std::vector<uint64_t>(words_, 0));
    for (NnfId n : used_list_) {  // ascending: children precede parents
      switch (mgr_.kind(n)) {
        case NnfManager::Kind::kFalse:
        case NnfManager::Kind::kTrue:
          break;
        case NnfManager::Kind::kLiteral: {
          const Var v = mgr_.lit(n).var();
          varsets_[n][v / 64] |= uint64_t{1} << (v % 64);
          break;
        }
        case NnfManager::Kind::kAnd:
        case NnfManager::Kind::kOr:
          for (NnfId c : mgr_.children(n)) {
            for (size_t w = 0; w < words_; ++w) {
              varsets_[n][w] |= varsets_[c][w];
            }
          }
          break;
      }
    }
  }

  bool CheckDecomposable() {
    bool clean = true;
    std::vector<uint64_t> acc(words_), shared(words_);
    for (NnfId n : reachable_list_) {
      if (mgr_.kind(n) != NnfManager::Kind::kAnd) continue;
      std::fill(acc.begin(), acc.end(), 0);
      for (NnfId c : mgr_.children(n)) {
        bool overlap = false;
        for (size_t w = 0; w < words_; ++w) {
          shared[w] = acc[w] & varsets_[c][w];
          overlap = overlap || shared[w] != 0;
          acc[w] |= varsets_[c][w];
        }
        if (overlap) {
          report_.Add(Severity::kError, rules::kCertifyDecomposable, n,
                      "var " + std::to_string(FirstVar(shared) + 1),
                      "and-gate inputs share a variable");
          clean = false;
          break;
        }
      }
    }
    return clean;
  }

  void BuildEngines() {
    cc_.emplace(cert_.cnf.num_vars());
    // Encoding in ascending id order keeps the recursion in Encode trivial
    // (children are always already encoded) and covers every node a trace
    // record may reference, reachable from the final root or not.
    for (NnfId n : used_list_) cc_->Encode(mgr_, n);
    const size_t total_vars =
        std::max(cc_->cnf().num_vars(), cert_.cnf.num_vars());
    // Determinism is a property of the circuit alone, so it gets a defs-only
    // engine: probing against defs+CNF would certify "disjoint within the
    // CNF's models", which is too weak to justify the count's sum rule.
    engine_defs_.emplace(total_vars);
    for (const Clause& c : cc_->cnf().clauses()) engine_defs_->AddPermanent(c);
    engine_f_.emplace(total_vars);
    for (const Clause& c : cert_.cnf.clauses()) engine_f_->AddPermanent(c);
    for (const Clause& c : cc_->cnf().clauses()) engine_f_->AddPermanent(c);
  }

  // Direction 1, circuit |= CNF: for each clause c, the circuit conditioned
  // on ~c must be unsatisfiable. Bottom-up satisfiability under a partial
  // assignment is exact on decomposable circuits, so this is complete.
  void CheckCircuitImpliesCnf() {
    std::vector<int8_t> assign(cert_.cnf.num_vars(), 0);
    std::vector<char> sat(mgr_.num_nodes(), 0);
    for (size_t i = 0; i < cert_.cnf.num_clauses(); ++i) {
      if (!Charge()) return;
      const Clause& clause = cert_.cnf.clause(i);
      for (Lit l : clause) assign[l.var()] = l.positive() ? -1 : 1;
      for (NnfId n : reachable_list_) {
        switch (mgr_.kind(n)) {
          case NnfManager::Kind::kFalse:
            sat[n] = 0;
            break;
          case NnfManager::Kind::kTrue:
            sat[n] = 1;
            break;
          case NnfManager::Kind::kLiteral: {
            const int8_t a = assign[mgr_.lit(n).var()];
            sat[n] = a == 0 || (a > 0) == mgr_.lit(n).positive();
            break;
          }
          case NnfManager::Kind::kAnd: {
            sat[n] = 1;
            for (NnfId c : mgr_.children(n)) sat[n] = sat[n] && sat[c];
            break;
          }
          case NnfManager::Kind::kOr: {
            sat[n] = 0;
            for (NnfId c : mgr_.children(n)) sat[n] = sat[n] || sat[c];
            break;
          }
        }
      }
      if (sat[cert_.root]) {
        report_.Add(Severity::kError, rules::kCertifyCircuitImpliesCnf,
                    cert_.root, "clause " + std::to_string(i),
                    "circuit does not entail input clause");
      }
      for (Lit l : clause) assign[l.var()] = 0;
    }
  }

  bool HaveTrace() const {
    return cert_.kind == Certificate::Kind::kDdnnf &&
           (!cert_.ddnnf.comps.empty() || cert_.ddnnf.top.conflict ||
            cert_.ddnnf.top.node != kInvalidNnf);
  }

  void CheckCnfImpliesCircuit() {
    if (HaveTrace()) {
      if (!ReplayTrace(cert_.ddnnf.top)) return;
      if (!engine_f_->root_conflict() &&
          cert_.ddnnf.top.node != cert_.root) {
        report_.Add(Severity::kError, rules::kCertifyReplay, cert_.root,
                    "trace node " + std::to_string(cert_.ddnnf.top.node),
                    "trace derives a node other than the certificate root");
      }
      return;
    }
    // No trace: prove CNF & defs & ~root unsatisfiable with the trusted
    // DPLL. Branching effectively stays on input variables — once they are
    // assigned, the biconditional definitions evaluate every gate by UP.
    if (!Charge()) return;
    engine_f_->Push();
    if (engine_f_->Assume(~cc_->LitOf(cert_.root))) {
      switch (engine_f_->SolveComplete(options_.max_solve_decisions)) {
        case UpEngine::SolveResult::kUnsat:
          break;
        case UpEngine::SolveResult::kSat:
          report_.Add(Severity::kError, rules::kCertifyCnfImpliesCircuit,
                      cert_.root,
                      ModelWitness(engine_f_->model(), cert_.cnf.num_vars()),
                      "the CNF has a model the circuit rejects");
          break;
        case UpEngine::SolveResult::kBudget:
          report_.Add(Severity::kError, rules::kCertifyBudget, cert_.root, "",
                      "semantic CNF |= circuit check exceeded the DPLL "
                      "decision budget");
          break;
      }
    }
    engine_f_->Pop();
  }

  // One frame of the replay's explicit stack: a branch and the next of
  // its components to replay, or a component and the side (0 = hi,
  // 1 = lo) whose branch is being replayed.
  struct ReplayFrame {
    const CertBranch* branch = nullptr;  // set on a branch frame
    const CertComp* comp = nullptr;      // set on a component frame
    size_t next = 0;
    Lit node;  // a component frame's node literal
  };

  // Establishes branch `top` under the engine's current trail, replaying
  // the search tree below it on an explicit stack, so the depth of the
  // search never uses the C++ stack. A branch verifies its claimed
  // conflict, or replays each component and then asserts its node's gate
  // after a successful RUP probe. A component replays each side under its
  // decision literal, lifts the side's node to the decision node, and
  // then asserts the merge. Returns false only on a certification failure
  // (already reported).
  bool ReplayTrace(const CertBranch& top) {
    // A component's branches reference only components decided before it,
    // so a path repeats none and holds at most 2·|comps| + 1 frames; a
    // deeper stack means a component references itself.
    const size_t max_depth = 2 * cert_.ddnnf.comps.size() + 1;
    std::vector<ReplayFrame> stack;
    // What the frame just finished returned to the one below it; empty
    // while the top frame has only been entered.
    std::optional<bool> ret = EnterBranch(top, stack, max_depth);
    while (!stack.empty()) {
      ReplayFrame& f = stack.back();
      if (f.comp == nullptr) {
        if (ret.has_value() && (!*ret || engine_f_->in_conflict())) {
          stack.pop_back();  // failed, or stronger than claimed
          continue;
        }
        if (f.next < f.branch->comps.size()) {
          ret = EnterComp(f.branch->comps[f.next++], stack, max_depth);
        } else {
          ret = CloseBranch(*f.branch);
          stack.pop_back();
        }
        continue;
      }
      // The branch of side f.next of component f.comp returned.
      const CertComp& comp = *f.comp;
      const Lit n = f.node;
      const Lit assume = f.next == 0 ? Pos(comp.decision) : Neg(comp.decision);
      const bool replayed = *ret;
      bool established = false;
      if (replayed && !engine_f_->in_conflict()) {
        // The branch proved its own node; one more probe lifts that to the
        // decision node (this is where "comp.node really is the decision
        // gate over this branch" gets checked rather than trusted).
        established = engine_f_->ProbeConflict({~n});
      }
      const bool vacuous = engine_f_->in_conflict();
      engine_f_->Pop();
      if (replayed && !established && !vacuous) {
        report_.Add(Severity::kError, rules::kCertifyReplay, comp.node,
                    "decision var " + std::to_string(comp.decision + 1),
                    "decision branch does not derive the component node");
      }
      if (!replayed || (!established && !vacuous)) {
        ret = false;
        stack.pop_back();
        continue;
      }
      engine_f_->AddScoped({~assume, n});
      if (f.next++ == 0) {
        engine_f_->Push();
        engine_f_->Assume(Neg(comp.decision));
        ret = EnterBranch(comp.lo, stack, max_depth);
        continue;
      }
      stack.pop_back();
      ret = CloseComp(comp, n);
    }
    return *ret;
  }

  // Starts replaying branch `b`: settles a claimed or actual conflict at
  // once, else pushes its frame and returns nothing.
  std::optional<bool> EnterBranch(const CertBranch& b,
                                  std::vector<ReplayFrame>& stack,
                                  size_t max_depth) {
    if (!Charge()) return false;
    if (!CheckDepth(stack, max_depth)) return false;
    if (b.conflict) {
      if (!engine_f_->in_conflict()) {
        report_.Add(Severity::kError, rules::kCertifyReplay, 0, "",
                    "claimed conflict is not derivable by unit propagation");
        return false;
      }
      return true;
    }
    if (engine_f_->in_conflict()) return true;  // stronger than claimed
    stack.push_back({&b, nullptr, 0, Lit()});
    return std::nullopt;
  }

  // Asserts a replayed branch's node after a successful RUP probe.
  bool CloseBranch(const CertBranch& b) {
    const Lit n = cc_->LitOf(b.node);
    if (!engine_f_->ProbeConflict({~n})) {
      report_.Add(Severity::kError, rules::kCertifyReplay, b.node, "",
                  "branch conjunction is not RUP-derivable");
      return false;
    }
    engine_f_->AddScoped({n});
    return true;
  }

  // Starts replaying component `id`: pushes its frame and enters its high
  // side.
  std::optional<bool> EnterComp(uint32_t id, std::vector<ReplayFrame>& stack,
                                size_t max_depth) {
    if (!Charge()) return false;
    if (!CheckDepth(stack, max_depth)) return false;
    const CertComp& comp = cert_.ddnnf.comps[id];
    const Var v = comp.decision;
    if (v >= cert_.cnf.num_vars()) {
      report_.Add(Severity::kError, rules::kCertifyFormat, comp.node,
                  "var " + std::to_string(v + 1),
                  "decision variable outside the CNF universe");
      return false;
    }
    stack.push_back({nullptr, &comp, 0, cc_->LitOf(comp.node)});
    engine_f_->Push();
    engine_f_->Assume(Pos(v));
    return EnterBranch(comp.hi, stack, max_depth);
  }

  // Asserts a component's node once both sides derived it.
  bool CloseComp(const CertComp& comp, Lit n) {
    if (engine_f_->in_conflict()) return true;
    if (!engine_f_->ProbeConflict({~n})) {
      report_.Add(Severity::kError, rules::kCertifyReplay, comp.node, "",
                  "decision merge is not RUP-derivable");
      return false;
    }
    engine_f_->AddScoped({n});
    return true;
  }

  bool CheckDepth(const std::vector<ReplayFrame>& stack, size_t max_depth) {
    if (stack.size() < max_depth) return true;
    report_.Add(Severity::kError, rules::kCertifyBudget, 0, "",
                "trace replay deeper than its components allow "
                "(cyclic component references)");
    return false;
  }

  bool CheckDeterministic() {
    for (NnfId n : reachable_list_) {
      if (mgr_.kind(n) != NnfManager::Kind::kOr) continue;
      const Span<const NnfId> kids = mgr_.children(n);
      for (size_t i = 0; i < kids.size(); ++i) {
        for (size_t j = i + 1; j < kids.size(); ++j) {
          if (!Charge()) return false;
          const Lit a = cc_->LitOf(kids[i]);
          const Lit b = cc_->LitOf(kids[j]);
          if (engine_defs_->ProbeConflict({a, b})) continue;
          engine_defs_->Push();
          UpEngine::SolveResult r = UpEngine::SolveResult::kUnsat;
          if (engine_defs_->Assume(a) && engine_defs_->Assume(b)) {
            r = engine_defs_->SolveComplete(options_.max_solve_decisions);
          }
          const std::vector<int8_t>& model = engine_defs_->model();
          engine_defs_->Pop();
          if (r == UpEngine::SolveResult::kBudget) {
            report_.Add(Severity::kError, rules::kCertifyBudget, n, "",
                        "determinism check exceeded the DPLL decision budget");
            return false;
          }
          if (r == UpEngine::SolveResult::kSat) {
            report_.Add(Severity::kError, rules::kCertifyDeterministic, n,
                        ModelWitness(model, cert_.cnf.num_vars()),
                        "or-gate inputs " + std::to_string(kids[i]) + " and " +
                            std::to_string(kids[j]) + " share a model");
            return false;
          }
        }
      }
    }
    return true;
  }

  // Bottom-up count over cnf.num_vars() variables with power-of-two gap
  // factors (sound on decomposable circuits with verified-disjoint or-gate
  // inputs; smoothing is not required).
  void CertifyCount() {
    std::vector<BigUint> count(mgr_.num_nodes());
    std::vector<size_t> size(mgr_.num_nodes(), 0);
    for (NnfId n = 0; n < mgr_.num_nodes(); ++n) {
      size[n] = PopCount(varsets_[n]);
    }
    for (NnfId n : reachable_list_) {
      switch (mgr_.kind(n)) {
        case NnfManager::Kind::kFalse:
          count[n] = BigUint(0);
          break;
        case NnfManager::Kind::kTrue:
        case NnfManager::Kind::kLiteral:
          count[n] = BigUint(1);
          break;
        case NnfManager::Kind::kAnd: {
          BigUint product(1);
          for (NnfId c : mgr_.children(n)) product *= count[c];
          count[n] = std::move(product);
          break;
        }
        case NnfManager::Kind::kOr: {
          BigUint sum(0);
          for (NnfId c : mgr_.children(n)) {
            sum += count[c] *
                   BigUint::PowerOfTwo(static_cast<unsigned>(size[n] - size[c]));
          }
          count[n] = std::move(sum);
          break;
        }
      }
    }
    result_->certified_count =
        count[cert_.root] *
        BigUint::PowerOfTwo(
            static_cast<unsigned>(cert_.cnf.num_vars() - size[cert_.root]));
    result_->count_certified = true;
    if (result_->certified_count != cert_.claimed_count) {
      report_.Add(Severity::kError, rules::kCertifyCount, cert_.root,
                  "certified " + result_->certified_count.ToString(),
                  "claimed count " + cert_.claimed_count.ToString() +
                      " disagrees with the certified count");
    }
  }

  const NnfManager& mgr_;
  std::vector<char> reachable_;
  std::vector<NnfId> reachable_list_;
  std::vector<char> used_;
  std::vector<NnfId> used_list_;
  size_t words_ = 0;
  std::vector<std::vector<uint64_t>> varsets_;
  std::optional<CircuitCnf> cc_;
  std::optional<UpEngine> engine_defs_;
  std::optional<UpEngine> engine_f_;
};

// Checks OBDD certificates: decomposability and determinism come from the
// recorded order structurally; CNF |= circuit replays the apply steps and
// the clause-conjunction chain against multiplexer definitions.
class ObddCertChecker : CheckerBase {
 public:
  ObddCertChecker(const Certificate& cert, const CertifyOptions& options,
                  CertifyResult* result)
      : CheckerBase(cert, options, result), trace_(cert.obdd) {}

  void Run() {
    ComputeUsed();
    if (!CheckTable()) return;
    CheckCircuitImpliesCnf();
    BuildEngine();
    CheckCnfImpliesCircuit();
    if (options_.check_count) CertifyCount();
  }

 private:
  uint32_t LevelOf(uint32_t id) const {
    return id <= 1 ? static_cast<uint32_t>(trace_.order.size())
                   : level_[trace_.nodes[id].var];
  }

  // Marks the nodes the certificate actually argues about: the root, every
  // apply-step operand/result, every chain node — closed under children.
  // The table snapshot may carry stale nodes from a reused manager (other
  // compilations, other variable universes); those are ignored everywhere.
  void ComputeUsed() {
    used_.assign(trace_.nodes.size(), 0);
    std::vector<uint32_t> stack;
    const auto mark = [&](uint32_t id) {
      if (!used_[id]) {
        used_[id] = 1;
        stack.push_back(id);
      }
    };
    mark(trace_.root);
    for (const ObddStep& s : trace_.steps) {
      mark(s.f);
      mark(s.g);
      mark(s.r);
    }
    for (const ObddChainLink& link : trace_.chain) {
      mark(link.clause_node);
      mark(link.acc_node);
    }
    while (!stack.empty()) {
      const uint32_t id = stack.back();
      stack.pop_back();
      if (id <= 1) continue;
      mark(trace_.nodes[id].lo);
      mark(trace_.nodes[id].hi);
    }
  }

  bool CheckTable() {
    const size_t nv = cert_.cnf.num_vars();
    level_.assign(nv, static_cast<uint32_t>(-1));
    for (uint32_t i = 0; i < trace_.order.size(); ++i) {
      const Var v = trace_.order[i];
      if (v >= nv || level_[v] != static_cast<uint32_t>(-1)) {
        report_.Add(Severity::kError, rules::kCertifyFormat, i,
                    "var " + std::to_string(v + 1),
                    "order variable out of range or repeated");
        return false;
      }
      level_[v] = i;
    }
    for (uint32_t id = 2; id < trace_.nodes.size(); ++id) {
      if (!used_[id]) continue;
      const ObddTrace::NodeRec& n = trace_.nodes[id];
      if (n.var >= nv || level_[n.var] == static_cast<uint32_t>(-1)) {
        report_.Add(Severity::kError, rules::kCertifyFormat, id,
                    "var " + std::to_string(n.var + 1),
                    "decision variable not in the recorded order");
        return false;
      }
      if (LevelOf(n.lo) <= level_[n.var] || LevelOf(n.hi) <= level_[n.var]) {
        report_.Add(Severity::kError, rules::kCertifyObddOrdered, id,
                    "var " + std::to_string(n.var + 1),
                    "child tests a variable at or above its parent's level");
        return false;
      }
    }
    return true;
  }

  void CheckCircuitImpliesCnf() {
    std::vector<int8_t> assign(cert_.cnf.num_vars(), 0);
    std::vector<char> sat(trace_.nodes.size(), 0);
    sat[1] = 1;
    for (size_t i = 0; i < cert_.cnf.num_clauses(); ++i) {
      if (!Charge()) return;
      const Clause& clause = cert_.cnf.clause(i);
      for (Lit l : clause) assign[l.var()] = l.positive() ? -1 : 1;
      for (uint32_t id = 2; id < trace_.nodes.size(); ++id) {
        if (!used_[id]) continue;
        const ObddTrace::NodeRec& n = trace_.nodes[id];
        const int8_t a = assign[n.var];
        sat[id] = a > 0   ? sat[n.hi]
                  : a < 0 ? sat[n.lo]
                          : (sat[n.lo] || sat[n.hi]);
      }
      if (sat[trace_.root]) {
        report_.Add(Severity::kError, rules::kCertifyCircuitImpliesCnf,
                    trace_.root, "clause " + std::to_string(i),
                    "circuit does not entail input clause");
      }
      for (Lit l : clause) assign[l.var()] = 0;
    }
  }

  Lit Gate(uint32_t id) const {
    return Pos(static_cast<Var>(cert_.cnf.num_vars() + id));
  }

  void BuildEngine() {
    engine_.emplace(cert_.cnf.num_vars() + trace_.nodes.size());
    for (const Clause& c : cert_.cnf.clauses()) engine_->AddPermanent(c);
    engine_->AddPermanent({~Gate(0)});
    engine_->AddPermanent({Gate(1)});
    for (uint32_t id = 2; id < trace_.nodes.size(); ++id) {
      if (!used_[id]) continue;
      const ObddTrace::NodeRec& rec = trace_.nodes[id];
      const Lit n = Gate(id);
      const Lit v = Pos(rec.var);
      const Lit lo = Gate(rec.lo);
      const Lit hi = Gate(rec.hi);
      engine_->AddPermanent({~n, ~v, hi});
      engine_->AddPermanent({~n, v, lo});
      engine_->AddPermanent({n, ~v, ~hi});
      engine_->AddPermanent({n, v, ~lo});
    }
  }

  // Verifies the conjunction lemma (~f | ~g | r) of one apply step by a UP
  // probe per branch of the step's top variable, then admits it.
  bool VerifyStep(size_t index, const ObddStep& s) {
    const Lit f = Gate(s.f);
    const Lit g = Gate(s.g);
    const Lit r = Gate(s.r);
    const uint32_t top = std::min(LevelOf(s.f), LevelOf(s.g));
    bool verified;
    if (top >= trace_.order.size()) {
      verified = engine_->ProbeConflict({f, g, ~r});  // both terminals
    } else {
      const Lit v = Pos(trace_.order[top]);
      verified = engine_->ProbeConflict({v, f, g, ~r}) &&
                 engine_->ProbeConflict({~v, f, g, ~r});
    }
    if (!verified) {
      report_.Add(Severity::kError, rules::kCertifyReplay, s.r,
                  "step " + std::to_string(index),
                  "apply-step lemma is not RUP-derivable");
      return false;
    }
    engine_->AddScoped({~f, ~g, r});
    return true;
  }

  void CheckCnfImpliesCircuit() {
    for (size_t i = 0; i < trace_.steps.size(); ++i) {
      if (!Charge()) return;
      if (engine_->root_conflict()) return;  // CNF refuted: trivially done
      if (!VerifyStep(i, trace_.steps[i])) return;
    }
    uint32_t last_acc = 1;  // empty chain: the accumulator is True
    for (const ObddChainLink& link : trace_.chain) {
      if (!Charge()) return;
      if (engine_->root_conflict()) return;
      // F |= the clause OBDD: assuming its gate false walks the chain and
      // falsifies every literal of the input clause.
      if (!engine_->ProbeConflict({~Gate(link.clause_node)})) {
        report_.Add(Severity::kError, rules::kCertifyReplay, link.clause_node,
                    "clause " + std::to_string(link.clause_index),
                    "clause OBDD is not RUP-derivable from the input clause");
        return;
      }
      engine_->AddScoped({Gate(link.clause_node)});
      if (!engine_->ProbeConflict({~Gate(link.acc_node)})) {
        report_.Add(Severity::kError, rules::kCertifyReplay, link.acc_node,
                    "clause " + std::to_string(link.clause_index),
                    "conjunction chain link is not RUP-derivable");
        return;
      }
      engine_->AddScoped({Gate(link.acc_node)});
      last_acc = link.acc_node;
    }
    if (engine_->root_conflict()) return;
    if (last_acc != trace_.root) {
      report_.Add(Severity::kError, rules::kCertifyReplay, trace_.root,
                  "chain ends at node " + std::to_string(last_acc),
                  "conjunction chain does not derive the certificate root");
    }
  }

  void CertifyCount() {
    std::vector<BigUint> count(trace_.nodes.size());
    count[0] = BigUint(0);
    count[1] = BigUint(1);
    for (uint32_t id = 2; id < trace_.nodes.size(); ++id) {
      if (!used_[id]) continue;
      const ObddTrace::NodeRec& n = trace_.nodes[id];
      const uint32_t lvl = level_[n.var];
      count[id] =
          count[n.lo] *
              BigUint::PowerOfTwo(LevelOf(n.lo) - lvl - 1) +
          count[n.hi] * BigUint::PowerOfTwo(LevelOf(n.hi) - lvl - 1);
    }
    // Free variables above the root and outside the order contribute 2^k.
    result_->certified_count =
        count[trace_.root] * BigUint::PowerOfTwo(LevelOf(trace_.root)) *
        BigUint::PowerOfTwo(
            static_cast<unsigned>(cert_.cnf.num_vars() - trace_.order.size()));
    result_->count_certified = true;
    if (result_->certified_count != cert_.claimed_count) {
      report_.Add(Severity::kError, rules::kCertifyCount, trace_.root,
                  "certified " + result_->certified_count.ToString(),
                  "claimed count " + cert_.claimed_count.ToString() +
                      " disagrees with the certified count");
    }
  }

  const ObddTrace& trace_;
  std::vector<char> used_;
  std::vector<uint32_t> level_;
  std::optional<UpEngine> engine_;
};

}  // namespace

CertifyResult CheckCertificate(const Certificate& cert,
                               const CertifyOptions& options) {
  Timer timer;
  CertifyResult result;
  TBC_COUNT("certify.checks");
  if (cert.kind == Certificate::Kind::kObdd) {
    ObddCertChecker(cert, options, &result).Run();
  } else {
    NnfCertChecker(cert, options, &result).Run();
  }
  TBC_OBSERVE_VALUE("certify.check_us",
                    static_cast<uint64_t>(timer.Millis() * 1000.0));
  return result;
}

}  // namespace tbc
