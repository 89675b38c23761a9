#ifndef TBC_ANALYSIS_RULES_H_
#define TBC_ANALYSIS_RULES_H_

#include <cstddef>
#include <string>

namespace tbc {

/// Stable rule identifiers for the circuit-invariant analyzers. These are
/// the contract between the analyzers, tbc_lint output, the invalid-circuit
/// corpus tests, and TBC_VALIDATE failure messages — rename with care.
///
/// The ladder mirrors the paper's §3 property hierarchy: NNF well-formedness
/// is the floor, decomposability unlocks SAT, + determinism unlocks counting,
/// + smoothness unlocks marginals; OBDD/SDD add ordering/vtree structure on
/// top; PSDD adds normalized local distributions over an SDD base.
namespace rules {

// --- Any circuit file tbc_lint is given ---
inline constexpr char kCircuitIo[] = "circuit.io";

// --- NNF family (analysis/nnf_analyzer.h) ---
inline constexpr char kNnfParse[] = "nnf.parse";
inline constexpr char kNnfWellFormed[] = "nnf.well-formed";
inline constexpr char kDnnfDecomposable[] = "dnnf.decomposable";
inline constexpr char kDdnnfDeterministic[] = "ddnnf.deterministic";
inline constexpr char kDdnnfUnverified[] = "ddnnf.unverified";
inline constexpr char kNnfSmooth[] = "nnf.smooth";
inline constexpr char kNnfDecision[] = "nnf.decision";

// --- OBDD (analysis/obdd_analyzer.h; also the obdd dialect of AnalyzeNnf) ---
inline constexpr char kObddOrdered[] = "obdd.ordered";
inline constexpr char kObddReduced[] = "obdd.reduced";

// --- SDD (analysis/sdd_analyzer.h) ---
inline constexpr char kSddParse[] = "sdd.parse";
inline constexpr char kSddStructured[] = "sdd.structured";
inline constexpr char kSddPartition[] = "sdd.primes-partition";
inline constexpr char kSddCompressed[] = "sdd.compressed";
inline constexpr char kSddTrimmed[] = "sdd.trimmed";

// --- PSDD (analysis/psdd_analyzer.h) ---
inline constexpr char kPsddParse[] = "psdd.parse";
inline constexpr char kPsddStructure[] = "psdd.structure";
inline constexpr char kPsddNormalized[] = "psdd.normalized";
inline constexpr char kPsddSupport[] = "psdd.support";

// --- CNF structure analysis (analysis/structure/; reported by tbc_analyze) ---
inline constexpr char kStructureIo[] = "structure.io";
inline constexpr char kStructureParse[] = "structure.parse";
inline constexpr char kStructureWidth[] = "structure.width";
inline constexpr char kStructureForecast[] = "structure.forecast";
inline constexpr char kStructureDisconnected[] = "structure.disconnected";
inline constexpr char kStructureBackbone[] = "structure.backbone";
inline constexpr char kStructurePure[] = "structure.pure";

// --- Certification (certify/checker.h; reported by tbc_certify) ---
inline constexpr char kCertifyIo[] = "certify.io";
inline constexpr char kCertifyParse[] = "certify.parse";
inline constexpr char kCertifyFormat[] = "certify.format";
inline constexpr char kCertifyDecomposable[] = "certify.decomposable";
inline constexpr char kCertifyDeterministic[] = "certify.deterministic";
inline constexpr char kCertifyObddOrdered[] = "certify.obdd-ordered";
inline constexpr char kCertifyReplay[] = "certify.replay";
inline constexpr char kCertifyCircuitImpliesCnf[] = "certify.circuit-implies-cnf";
inline constexpr char kCertifyCnfImpliesCircuit[] = "certify.cnf-implies-circuit";
inline constexpr char kCertifyCount[] = "certify.count";
inline constexpr char kCertifyBudget[] = "certify.budget";

}  // namespace rules

/// Registry entry: the rule id plus a one-line summary (for `tbc_lint
/// --list-rules` and docs).
struct RuleInfo {
  const char* id;
  const char* summary;
};

/// All registered rules, in ladder order.
const RuleInfo* AllRules(size_t* count);

/// Summary for a rule id; nullptr when unknown.
const char* RuleSummary(const std::string& rule_id);

}  // namespace tbc

#endif  // TBC_ANALYSIS_RULES_H_
