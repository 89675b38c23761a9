#include "analysis/rules.h"

namespace tbc {

namespace {

constexpr RuleInfo kRules[] = {
    {rules::kCircuitIo,
     "circuit file could not be read (missing or I/O error)"},
    {rules::kNnfParse, "file is not parseable as a c2d .nnf circuit"},
    {rules::kNnfWellFormed,
     "NNF well-formedness: literal variables in range, gates non-degenerate"},
    {rules::kDnnfDecomposable,
     "decomposability: inputs of every and-gate share no variable"},
    {rules::kDdnnfDeterministic,
     "determinism: inputs of every or-gate are pairwise logically disjoint"},
    {rules::kDdnnfUnverified,
     "determinism could not be fully verified within the SAT-check budget"},
    {rules::kNnfSmooth,
     "smoothness: inputs of every or-gate mention the same variables"},
    {rules::kNnfDecision,
     "decision form: every or-gate is a binary multiplexer on one variable"},
    {rules::kObddOrdered,
     "ordering: decision variables respect one global order on every path"},
    {rules::kObddReduced,
     "reducedness: no decision with identical branches, no duplicate nodes"},
    {rules::kSddParse, "file is not parseable as an SDD-library .sdd circuit"},
    {rules::kSddStructured,
     "structure: primes/subs respect the left/right vtree of their decision"},
    {rules::kSddPartition,
     "strong determinism: primes are non-false, disjoint, and exhaustive"},
    {rules::kSddCompressed, "compression: subs of a decision node are distinct"},
    {rules::kSddTrimmed,
     "trimming: no {(true,s)} decisions and no {(p,true),(~p,false)} decisions"},
    {rules::kPsddParse, "file is not parseable as a .psdd (sdd + P lines)"},
    {rules::kPsddStructure,
     "structure: parameters attach to the normalized nodes of the base SDD"},
    {rules::kPsddNormalized,
     "normalization: local parameters are in [0,1] and sum to one"},
    {rules::kPsddSupport,
     "support: zero parameters shrink the distribution below the base SDD"},
    {rules::kStructureIo, "file could not be read (missing or I/O error)"},
    {rules::kStructureParse, "file is not parseable as DIMACS CNF"},
    {rules::kStructureWidth,
     "treewidth bracket: degeneracy lower bound vs best elimination-order "
     "upper bound"},
    {rules::kStructureForecast,
     "compile-cost envelope: predicted node bound (n*2^w) per backend"},
    {rules::kStructureDisconnected,
     "the primal graph is disconnected: components compile independently"},
    {rules::kStructureBackbone,
     "unit propagation fixes literals (or refutes the CNF outright)"},
    {rules::kStructurePure,
     "pure literals: variables occurring with a single polarity"},
    {rules::kCertifyIo, "file could not be read (missing or I/O error)"},
    {rules::kCertifyParse,
     "file is not parseable as a tbc-cert compilation certificate"},
    {rules::kCertifyFormat,
     "certificate structure: node/variable ids in range, roots consistent"},
    {rules::kCertifyDecomposable,
     "certified decomposability: and-gate inputs share no variable"},
    {rules::kCertifyDeterministic,
     "certified determinism: or-gate inputs disjoint (UP probe, then DPLL)"},
    {rules::kCertifyObddOrdered,
     "certified ordering: OBDD table children descend in the recorded order"},
    {rules::kCertifyReplay,
     "trace replay: a recorded derivation step is not RUP-derivable"},
    {rules::kCertifyCircuitImpliesCnf,
     "circuit |= CNF: some input clause is not entailed by the circuit"},
    {rules::kCertifyCnfImpliesCircuit,
     "CNF |= circuit: the CNF has a model the circuit rejects"},
    {rules::kCertifyCount,
     "certified model count disagrees with the compiler's claimed count"},
    {rules::kCertifyBudget,
     "verification incomplete: probe/solve budget exhausted"},
};

}  // namespace

const RuleInfo* AllRules(size_t* count) {
  *count = sizeof(kRules) / sizeof(kRules[0]);
  return kRules;
}

const char* RuleSummary(const std::string& rule_id) {
  for (const RuleInfo& r : kRules) {
    if (rule_id == r.id) return r.summary;
  }
  return nullptr;
}

}  // namespace tbc
