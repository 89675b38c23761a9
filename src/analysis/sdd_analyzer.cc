#include "analysis/sdd_analyzer.h"

#include <unordered_set>

#include "analysis/rules.h"
#include "analysis/tseitin.h"
#include "nnf/nnf.h"
#include "sat/solver.h"
#include "sdd/io.h"

namespace tbc {

namespace {

std::string ElementPair(size_t i, size_t j) {
  return "elements " + std::to_string(i) + " and " + std::to_string(j);
}

// Reports CheckSddLiteral's or CheckSddElements' faults of `node` under
// the rule each breaks.
void ReportFaults(const std::vector<SddFaultAt>& faults, uint64_t node,
                  DiagnosticReport& report) {
  for (const SddFaultAt& fault : faults) {
    report.Add(Severity::kError,
               fault.fault <= SddFault::kSubNotRight ? rules::kSddStructured
                                                     : rules::kSddPartition,
               node, SddFaultWitness(fault), SddFaultMessage(fault.fault));
  }
}

// Compression (subs pairwise distinct) and the trimming rules of decision
// `node`, whose subs are given as ids that are equal iff the subs are.
void ReportUncompressedOrUntrimmed(const std::vector<uint32_t>& subs,
                                   uint32_t top, uint32_t bottom, uint64_t node,
                                   DiagnosticReport& report) {
  for (size_t i = 0; i < subs.size(); ++i) {
    for (size_t j = i + 1; j < subs.size(); ++j) {
      if (subs[i] == subs[j]) {
        report.Add(Severity::kError, rules::kSddCompressed, node,
                   ElementPair(i, j),
                   "two elements share the same sub (node is not compressed)");
      }
    }
  }
  if (subs.size() == 1) {
    report.Add(Severity::kError, rules::kSddTrimmed, node, "",
               "single-element decision {(true, s)} should be replaced by "
               "its sub");
  } else if (subs.size() == 2 &&
             ((subs[0] == top && subs[1] == bottom) ||
              (subs[0] == bottom && subs[1] == top))) {
    report.Add(Severity::kError, rules::kSddTrimmed, node, "",
               "decision {(p, true), (~p, false)} should be replaced by its "
               "prime");
  }
}

// Renders a SAT model restricted to the variables below `v` in the vtree.
std::string ModelOverVtree(const Assignment& model, const Vtree& vtree,
                           VtreeId v) {
  std::string out;
  size_t shown = 0;
  for (Var x : vtree.VarsBelow(v)) {
    if (shown == 16) return out + " ...";
    if (!out.empty()) out += " ";
    out += Lit(x, x < model.size() && model[x]).ToString();
    ++shown;
  }
  return out;
}

}  // namespace

void AnalyzeSdd(SddManager& mgr, SddId root, const SddAnalysisOptions& options,
                DiagnosticReport& report) {
  const Vtree& vtree = mgr.vtree();
  std::vector<SddId> stack = {root};
  std::unordered_set<SddId> seen;
  while (!stack.empty()) {
    const SddId f = stack.back();
    stack.pop_back();
    if (mgr.IsConstant(f) || !seen.insert(f).second) continue;
    if (mgr.IsLiteral(f)) {
      ReportFaults(CheckSddLiteral(vtree, mgr.vtree_node(f), mgr.literal(f)), f, report);
      continue;
    }
    const VtreeId v = mgr.vtree_node(f);
    // Copied, not referenced: the partition check below runs apply, which
    // may grow the manager's node table and invalidate references into it.
    const std::vector<std::pair<SddId, SddId>> elements = mgr.elements(f);
    std::vector<SddElementRef> refs;
    for (const auto& [p, s] : elements) {
      refs.push_back({mgr.vtree_node(p), mgr.vtree_node(s), p == mgr.False(), p});
    }
    ReportFaults(CheckSddElements(vtree, v, refs,
                                  options.check_partition ? &mgr : nullptr),
                 f, report);
    if (vtree.IsLeaf(v)) continue;
    std::vector<uint32_t> subs;
    for (const auto& [p, s] : elements) {
      stack.push_back(p);
      stack.push_back(s);
      subs.push_back(s);
    }
    ReportUncompressedOrUntrimmed(subs, mgr.True(), mgr.False(), f, report);
  }
}

void AnalyzeSddFile(const std::string& text, const Vtree& vtree,
                    const SddAnalysisOptions& options, DiagnosticReport& report) {
  auto parsed = ParseSddFileGraph(text, vtree);
  if (!parsed.ok()) {
    report.Add(Severity::kError, rules::kSddParse, 0, "",
               parsed.status().message());
    return;
  }
  const std::vector<SddFileNode>& graph = *parsed;

  // Structural NNF translation (no canonicalization beyond hash-consing):
  // the semantic substrate for compression and partition checks.
  NnfManager nnf;
  // Touch every vtree variable so witness masks have stable width.
  for (Var v = 0; v < vtree.num_vars(); ++v) nnf.Literal(Pos(v));
  std::vector<NnfId> nnf_of(graph.size(), kInvalidNnf);
  for (size_t i = 0; i < graph.size(); ++i) {
    const SddFileNode& node = graph[i];
    switch (node.kind) {
      case 'T': nnf_of[i] = nnf.True(); break;
      case 'F': nnf_of[i] = nnf.False(); break;
      case 'L': nnf_of[i] = nnf.Literal(node.lit); break;
      case 'D': {
        std::vector<NnfId> parts;
        parts.reserve(node.elements.size());
        for (const auto& [p, s] : node.elements) {
          parts.push_back(nnf.And(nnf_of[p], nnf_of[s]));
        }
        nnf_of[i] = nnf.Or(std::move(parts));
        break;
      }
      default: break;
    }
  }

  CircuitCnf encoder(vtree.num_vars());
  SatSolver solver;
  size_t encoded_clauses = 0;
  // Tseitin-encodes `f` and hands the solver the clauses that added.
  auto encode = [&](NnfId f) {
    const Lit out = encoder.Encode(nnf, f);
    for (; encoded_clauses < encoder.cnf().num_clauses(); ++encoded_clauses) {
      solver.AddClause(encoder.cnf().clause(encoded_clauses));
    }
    solver.EnsureVars(encoder.cnf().num_vars());
    return out;
  };

  for (size_t i = 0; i < graph.size(); ++i) {
    const SddFileNode& node = graph[i];
    if (node.kind == 'L') {
      ReportFaults(CheckSddLiteral(vtree, node.vtree, node.lit), node.file_id, report);
      continue;
    }
    if (node.kind != 'D') continue;
    const VtreeId v = node.vtree;
    // Structure and false primes here; the partition by SAT below.
    std::vector<SddElementRef> refs;
    for (const auto& [p, s] : node.elements) {
      refs.push_back({graph[p].vtree, graph[s].vtree,
                      nnf_of[p] == nnf.False()});
    }
    ReportFaults(CheckSddElements(vtree, v, refs, nullptr), node.file_id, report);
    if (vtree.IsLeaf(v) || node.elements.empty()) continue;
    // Structurally equal subs collapse to one NnfId.
    std::vector<uint32_t> subs;
    for (const auto& [p, s] : node.elements) subs.push_back(nnf_of[s]);
    ReportUncompressedOrUntrimmed(subs, nnf.True(), nnf.False(), node.file_id,
                                  report);
    // Partition semantics, SAT-backed on the structural translation.
    if (options.check_partition) {
      for (size_t a = 0; a < node.elements.size(); ++a) {
        for (size_t b = a + 1; b < node.elements.size(); ++b) {
          if (solver.SolveAssuming({encode(nnf_of[node.elements[a].first]),
                                    encode(nnf_of[node.elements[b].first])}) ==
              SatSolver::Outcome::kSat) {
            report.Add(Severity::kError, rules::kSddPartition, node.file_id,
                       ModelOverVtree(solver.model(), vtree, vtree.left(v)),
                       ElementPair(a, b) +
                           ": primes overlap (strong determinism broken)");
          }
        }
      }
      std::vector<NnfId> primes;
      primes.reserve(node.elements.size());
      for (const auto& [p, s] : node.elements) primes.push_back(nnf_of[p]);
      if (solver.SolveAssuming({~encode(nnf.Or(std::move(primes)))}) ==
          SatSolver::Outcome::kSat) {
        report.Add(Severity::kError, rules::kSddPartition, node.file_id,
                   ModelOverVtree(solver.model(), vtree, vtree.left(v)),
                   "primes are not exhaustive over the left vtree");
      }
    }
  }
}

}  // namespace tbc
