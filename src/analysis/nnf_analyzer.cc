#include "analysis/nnf_analyzer.h"

#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/rules.h"
#include "analysis/tseitin.h"
#include "sat/solver.h"

namespace tbc {

const char* NnfDialectName(NnfDialect d) {
  switch (d) {
    case NnfDialect::kNnf: return "nnf";
    case NnfDialect::kDnnf: return "dnnf";
    case NnfDialect::kDdnnf: return "ddnnf";
    case NnfDialect::kSmoothDdnnf: return "sd-dnnf";
    case NnfDialect::kDecisionDnnf: return "dec-dnnf";
    case NnfDialect::kObdd: return "obdd";
  }
  return "ddnnf";
}

bool ParseNnfDialect(const char* name, NnfDialect* out) {
  if (std::strcmp(name, "nnf") == 0) *out = NnfDialect::kNnf;
  else if (std::strcmp(name, "dnnf") == 0) *out = NnfDialect::kDnnf;
  else if (std::strcmp(name, "ddnnf") == 0) *out = NnfDialect::kDdnnf;
  else if (std::strcmp(name, "sd-dnnf") == 0) *out = NnfDialect::kSmoothDdnnf;
  else if (std::strcmp(name, "dec-dnnf") == 0) *out = NnfDialect::kDecisionDnnf;
  else if (std::strcmp(name, "obdd") == 0) *out = NnfDialect::kObdd;
  else return false;
  return true;
}

namespace {

// 1-based variable naming, matching the DIMACS convention of the file
// formats the analyzer fronts.
std::string VarName(Var v) { return std::to_string(v + 1); }

// First variable present in both bitsets, or kInvalidVar.
Var FirstSharedVar(Span<const uint64_t> a, Span<const uint64_t> b) {
  const size_t words = a.size() < b.size() ? a.size() : b.size();
  for (size_t w = 0; w < words; ++w) {
    const uint64_t both = a[w] & b[w];
    if (both != 0) {
      return static_cast<Var>(64 * w + __builtin_ctzll(both));
    }
  }
  return kInvalidVar;
}

bool ContainsVar(Span<const uint64_t> set, Var v) {
  const size_t w = v / 64;
  return w < set.size() && (set[w] >> (v % 64)) & 1u;
}

// Literals an or-input forces true at its top level: the literal itself, or
// the literal children of an and-gate. This is the syntactic fast path for
// determinism (complementary anchors => disjoint inputs) and the basis of
// decision-form extraction.
std::vector<Lit> AnchoredLits(const NnfManager& mgr, NnfId c) {
  std::vector<Lit> out;
  if (mgr.kind(c) == NnfManager::Kind::kLiteral) {
    out.push_back(mgr.lit(c));
  } else if (mgr.kind(c) == NnfManager::Kind::kAnd) {
    for (NnfId g : mgr.children(c)) {
      if (mgr.kind(g) == NnfManager::Kind::kLiteral) out.push_back(mgr.lit(g));
    }
  }
  return out;
}

bool SyntacticallyDisjoint(const std::vector<Lit>& a, const std::vector<Lit>& b) {
  for (Lit x : a) {
    for (Lit y : b) {
      if (x == ~y) return true;
    }
  }
  return false;
}

// Shape of an or-gate viewed as an OBDD multiplexer (x & hi) | (~x & lo).
struct DecisionShape {
  bool is_decision = false;
  Var var = kInvalidVar;
  // The non-anchor parts of the two inputs ("hi"/"lo" subcircuits); used by
  // the ordering and reducedness checks. Sorted node-id lists.
  std::vector<NnfId> rest[2];
};

DecisionShape ExtractDecision(const NnfManager& mgr, NnfId n) {
  DecisionShape shape;
  const Span<const NnfId> kids = mgr.children(n);
  if (kids.size() != 2) return shape;
  const std::vector<Lit> a = AnchoredLits(mgr, kids[0]);
  const std::vector<Lit> b = AnchoredLits(mgr, kids[1]);
  Lit anchor;
  for (Lit x : a) {
    for (Lit y : b) {
      if (x == ~y) anchor = x;
    }
  }
  if (!anchor.valid()) return shape;
  shape.is_decision = true;
  shape.var = anchor.var();
  for (int side = 0; side < 2; ++side) {
    const NnfId c = kids[side];
    if (mgr.kind(c) != NnfManager::Kind::kAnd) continue;  // bare literal
    for (NnfId g : mgr.children(c)) {
      const bool is_anchor = mgr.kind(g) == NnfManager::Kind::kLiteral &&
                             mgr.lit(g).var() == shape.var;
      if (!is_anchor) shape.rest[side].push_back(g);
    }
  }
  return shape;
}

// Renders a model restricted to the variables of `vars_mask` as DIMACS
// literals, capped so witnesses stay one line.
std::string ModelWitness(const Assignment& model,
                         const std::vector<uint64_t>& vars_mask) {
  std::string out;
  size_t shown = 0;
  for (size_t w = 0; w < vars_mask.size(); ++w) {
    uint64_t bits = vars_mask[w];
    while (bits != 0) {
      const Var v = static_cast<Var>(64 * w + __builtin_ctzll(bits));
      bits &= bits - 1;
      if (shown == 16) return out + " ...";
      if (!out.empty()) out += " ";
      out += Lit(v, v < model.size() && model[v]).ToString();
      ++shown;
    }
  }
  return out;
}

class NnfAnalysis {
 public:
  NnfAnalysis(NnfManager& mgr, NnfId root, const NnfAnalysisOptions& options,
              DiagnosticReport& report)
      : mgr_(mgr), root_(root), options_(options), report_(report) {}

  void Run() {
    mgr_.VarSet(root_);  // populate bottom-up varset caches once
    order_ = mgr_.TopologicalOrder(root_);
    const NnfDialect d = options_.dialect;
    CheckWellFormed();
    if (d != NnfDialect::kNnf) CheckDecomposability();
    if (d == NnfDialect::kDdnnf || d == NnfDialect::kSmoothDdnnf) {
      CheckDeterminism();
    }
    if (d == NnfDialect::kDdnnf || d == NnfDialect::kSmoothDdnnf ||
        d == NnfDialect::kDecisionDnnf) {
      CheckSmoothness(d == NnfDialect::kSmoothDdnnf ? Severity::kError
                                                    : Severity::kWarning);
    }
    if (d == NnfDialect::kDecisionDnnf || d == NnfDialect::kObdd) {
      CheckDecisionForm();
    }
    if (d == NnfDialect::kObdd) {
      CheckObddOrdering();
      CheckObddReducedness();
    }
  }

 private:
  void CheckWellFormed() {
    const size_t declared = options_.expected_num_vars != 0
                                ? options_.expected_num_vars
                                : mgr_.num_vars();
    for (NnfId n : order_) {
      switch (mgr_.kind(n)) {
        case NnfManager::Kind::kLiteral:
          if (mgr_.lit(n).var() >= declared) {
            report_.Add(Severity::kError, rules::kNnfWellFormed, n,
                        VarName(mgr_.lit(n).var()),
                        "literal variable exceeds the declared " +
                            std::to_string(declared) + " variables");
          }
          break;
        case NnfManager::Kind::kAnd:
        case NnfManager::Kind::kOr:
          if (mgr_.children(n).empty()) {
            report_.Add(Severity::kError, rules::kNnfWellFormed, n, "",
                        "gate with no inputs");
          }
          break;
        default:
          break;
      }
    }
  }

  void CheckDecomposability() {
    for (NnfId n : order_) {
      if (mgr_.kind(n) != NnfManager::Kind::kAnd) continue;
      std::vector<uint64_t> seen(mgr_.VarSet(n).size(), 0);
      for (NnfId c : mgr_.children(n)) {
        const Span<const uint64_t> cs = mgr_.VarSet(c);
        const Var shared = FirstSharedVar(seen, cs);
        if (shared != kInvalidVar) {
          report_.Add(Severity::kError, rules::kDnnfDecomposable, n,
                      "variable " + VarName(shared),
                      "inputs of and-gate share variable " + VarName(shared) +
                          " (decomposability broken)");
          break;  // one diagnostic per gate
        }
        for (size_t w = 0; w < cs.size(); ++w) seen[w] |= cs[w];
      }
    }
  }

  void CheckDeterminism() {
    size_t sat_checks = 0;
    bool budget_reported = false;
    for (NnfId n : order_) {
      if (mgr_.kind(n) != NnfManager::Kind::kOr) continue;
      const Span<const NnfId> kids = mgr_.children(n);
      std::vector<std::vector<Lit>> anchors;
      anchors.reserve(kids.size());
      for (NnfId c : kids) anchors.push_back(AnchoredLits(mgr_, c));
      bool flagged = false;
      for (size_t i = 0; i < kids.size() && !flagged; ++i) {
        for (size_t j = i + 1; j < kids.size() && !flagged; ++j) {
          if (SyntacticallyDisjoint(anchors[i], anchors[j])) continue;
          if (!options_.sat_determinism) {
            report_.Add(Severity::kWarning, rules::kDdnnfUnverified, n, "",
                        "or-inputs not syntactically disjoint and SAT "
                        "checking is disabled");
            flagged = true;
            break;
          }
          if (sat_checks >= options_.max_sat_checks) {
            if (!budget_reported) {
              report_.Add(Severity::kWarning, rules::kDdnnfUnverified, n, "",
                          "SAT-check budget of " +
                              std::to_string(options_.max_sat_checks) +
                              " exhausted; remaining or-gates unverified");
              budget_reported = true;
            }
            flagged = true;
            break;
          }
          ++sat_checks;
          EnsureSolver();
          const SatSolver::Outcome outcome = solver_->SolveAssuming(
              {encoder_->LitOf(kids[i]), encoder_->LitOf(kids[j])});
          if (outcome == SatSolver::Outcome::kSat) {
            // Witness over the variables the two inputs mention.
            std::vector<uint64_t> mask = mgr_.VarSet(kids[i]).ToVector();
            const Span<const uint64_t> other = mgr_.VarSet(kids[j]);
            if (other.size() > mask.size()) mask.resize(other.size(), 0);
            for (size_t w = 0; w < other.size(); ++w) mask[w] |= other[w];
            report_.Add(Severity::kError, rules::kDdnnfDeterministic, n,
                        ModelWitness(solver_->model(), mask),
                        "or-inputs " + std::to_string(i) + " and " +
                            std::to_string(j) +
                            " are simultaneously satisfiable "
                            "(determinism broken)");
            flagged = true;
          }
        }
      }
    }
  }

  void CheckSmoothness(Severity severity) {
    for (NnfId n : order_) {
      if (mgr_.kind(n) != NnfManager::Kind::kOr) continue;
      const Span<const NnfId> kids = mgr_.children(n);
      for (size_t i = 1; i < kids.size(); ++i) {
        if (mgr_.VarSet(kids[i]) == mgr_.VarSet(kids[0])) continue;
        // Find one variable in the symmetric difference as the witness.
        const Span<const uint64_t> a = mgr_.VarSet(kids[0]);
        const Span<const uint64_t> b = mgr_.VarSet(kids[i]);
        Var miss = kInvalidVar;
        const size_t words = a.size() > b.size() ? a.size() : b.size();
        for (size_t w = 0; w < words && miss == kInvalidVar; ++w) {
          const uint64_t aw = w < a.size() ? a[w] : 0;
          const uint64_t bw = w < b.size() ? b[w] : 0;
          if ((aw ^ bw) != 0) {
            miss = static_cast<Var>(64 * w + __builtin_ctzll(aw ^ bw));
          }
        }
        report_.Add(severity, rules::kNnfSmooth, n,
                    miss == kInvalidVar ? "" : "variable " + VarName(miss),
                    "or-inputs 0 and " + std::to_string(i) +
                        " mention different variables (smoothness broken)");
        break;  // one diagnostic per gate
      }
    }
  }

  void CheckDecisionForm() {
    for (NnfId n : order_) {
      if (mgr_.kind(n) != NnfManager::Kind::kOr) continue;
      if (mgr_.children(n).size() > 2) {
        report_.Add(Severity::kError, rules::kNnfDecision, n, "",
                    "or-gate with " + std::to_string(mgr_.children(n).size()) +
                        " inputs cannot be a binary multiplexer");
        continue;
      }
      if (!ExtractDecision(mgr_, n).is_decision) {
        report_.Add(Severity::kError, rules::kNnfDecision, n, "",
                    "or-gate is not a multiplexer (x & hi) | (~x & lo) on any "
                    "variable");
      }
    }
  }

  void CheckObddOrdering() {
    // Per-node set of the first decision variables met when descending:
    // tdv[or-decision] = {its var}; gates pass the union of their inputs up.
    std::unordered_map<NnfId, std::vector<Var>> tdv;
    // Precedence edges var v -> var w ("v is tested above w somewhere").
    std::unordered_map<Var, std::unordered_set<Var>> succ;
    std::unordered_set<Var> vars;
    for (NnfId n : order_) {
      std::vector<Var> mine;
      switch (mgr_.kind(n)) {
        case NnfManager::Kind::kLiteral:
          // A bare literal leaf is itself a (final) decision on its
          // variable, so it participates in the precedence graph.
          tdv[n] = {mgr_.lit(n).var()};
          continue;
        case NnfManager::Kind::kOr: {
          const DecisionShape shape = ExtractDecision(mgr_, n);
          if (shape.is_decision) {
            vars.insert(shape.var);
            for (int side = 0; side < 2; ++side) {
              for (NnfId r : shape.rest[side]) {
                if (ContainsVar(mgr_.VarSet(r), shape.var)) {
                  report_.Add(Severity::kError, rules::kObddOrdered, n,
                              "variable " + VarName(shape.var),
                              "decision variable " + VarName(shape.var) +
                                  " appears again below its own decision");
                }
                for (Var w : tdv[r]) {
                  vars.insert(w);
                  succ[shape.var].insert(w);
                }
              }
            }
            mine = {shape.var};
            tdv[n] = std::move(mine);
            continue;
          }
          // Non-decision or-gate (already flagged by nnf.decision): fall
          // through to the union rule so ordering still sees below it.
          break;
        }
        default:
          break;
      }
      for (NnfId c : mgr_.children(n)) {
        for (Var w : tdv[c]) mine.push_back(w);
      }
      tdv[n] = std::move(mine);
    }
    // Kahn's algorithm on the precedence graph; leftovers form cycles, i.e.
    // two paths test the same pair of variables in opposite orders.
    std::unordered_map<Var, size_t> indegree;
    for (Var v : vars) indegree[v] = 0;
    for (const auto& [v, outs] : succ) {
      (void)v;
      for (Var w : outs) ++indegree[w];
    }
    std::vector<Var> queue;
    for (const auto& [v, deg] : indegree) {
      if (deg == 0) queue.push_back(v);
    }
    size_t removed = 0;
    while (!queue.empty()) {
      const Var v = queue.back();
      queue.pop_back();
      ++removed;
      auto it = succ.find(v);
      if (it == succ.end()) continue;
      for (Var w : it->second) {
        if (--indegree[w] == 0) queue.push_back(w);
      }
    }
    if (removed < vars.size()) {
      std::string cycle_vars;
      for (const auto& [v, deg] : indegree) {
        if (deg == 0) continue;
        if (!cycle_vars.empty()) cycle_vars += " ";
        cycle_vars += VarName(v);
      }
      report_.Add(Severity::kError, rules::kObddOrdered, root_, cycle_vars,
                  "no global variable order: paths test variables {" +
                      cycle_vars + "} in conflicting orders");
    }
  }

  void CheckObddReducedness() {
    for (NnfId n : order_) {
      if (mgr_.kind(n) != NnfManager::Kind::kOr) continue;
      const DecisionShape shape = ExtractDecision(mgr_, n);
      if (!shape.is_decision) continue;
      // Identical rests mean hi == lo (both empty means hi == lo == true:
      // the gate is a tautological decision); either way the node would be
      // collapsed in a reduced OBDD.
      if (shape.rest[0] == shape.rest[1]) {
        report_.Add(Severity::kError, rules::kObddReduced, n,
                    "variable " + VarName(shape.var),
                    "decision on variable " + VarName(shape.var) +
                        " has identical hi and lo branches (node is "
                        "redundant)");
      }
    }
  }

  void EnsureSolver() {
    if (solver_) return;
    encoder_ = std::make_unique<CircuitCnf>(mgr_.num_vars());
    encoder_->Encode(mgr_, root_);
    solver_ = std::make_unique<SatSolver>();
    solver_->AddCnf(encoder_->cnf());
  }

  NnfManager& mgr_;
  NnfId root_;
  const NnfAnalysisOptions& options_;
  DiagnosticReport& report_;
  std::vector<NnfId> order_;
  std::unique_ptr<CircuitCnf> encoder_;
  std::unique_ptr<SatSolver> solver_;
};

}  // namespace

void AnalyzeNnf(NnfManager& mgr, NnfId root, const NnfAnalysisOptions& options,
                DiagnosticReport& report) {
  NnfAnalysis(mgr, root, options, report).Run();
}

}  // namespace tbc
