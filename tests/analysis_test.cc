// Tests for the circuit invariant analyzer (src/analysis/): every corpus
// file under tests/corpus/invalid_circuits must be flagged with its
// designed rule id, every file under valid_circuits must come back with
// zero diagnostics, and artifacts produced by the library's own compilers
// must verify clean.

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/nnf_analyzer.h"
#include "analysis/obdd_analyzer.h"
#include "analysis/psdd_analyzer.h"
#include "analysis/rules.h"
#include "analysis/sdd_analyzer.h"
#include "analysis/tseitin.h"
#include "base/random.h"
#include "compiler/ddnnf_compiler.h"
#include "gtest/gtest.h"
#include "logic/cnf.h"
#include "nnf/io.h"
#include "nnf/nnf.h"
#include "obdd/obdd.h"
#include "psdd/psdd.h"
#include "sat/solver.h"
#include "sdd/compile.h"
#include "sdd/io.h"
#include "sdd/sdd.h"
#include "vtree/vtree.h"

#include "nnf_oracle.h"

namespace tbc {
namespace {

std::string ReadCorpus(const std::string& relative) {
  const std::string path = std::string(TBC_CORPUS_DIR) + "/" + relative;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

DiagnosticReport LintNnf(const std::string& text, NnfDialect dialect,
                         bool sat_determinism = true) {
  DiagnosticReport report;
  NnfManager mgr;
  auto root = ReadNnf(mgr, text);
  if (!root.ok()) {
    report.Add(Severity::kError, rules::kNnfParse, 0, "",
               root.status().message());
    return report;
  }
  NnfAnalysisOptions options;
  options.dialect = dialect;
  options.sat_determinism = sat_determinism;
  AnalyzeNnf(mgr, *root, options, report);
  return report;
}

Vtree CorpusVtree(const std::string& relative) {
  auto parsed = Vtree::Parse(ReadCorpus(relative));
  EXPECT_TRUE(parsed.ok());
  return *std::move(parsed);
}

Cnf RandomCnf(size_t n, size_t m, size_t k, uint64_t seed) {
  Rng rng(seed);
  Cnf cnf(n);
  for (size_t i = 0; i < m; ++i) {
    std::set<Var> vars;
    while (vars.size() < k) vars.insert(static_cast<Var>(rng.Below(n)));
    Clause c;
    for (Var v : vars) c.push_back(Lit(v, rng.Flip(0.5)));
    cnf.AddClause(c);
  }
  return cnf;
}

// --- invalid corpus: each file must be flagged with its designed rule ---

TEST(AnalysisCorpus, NonDecomposableAndIsFlagged) {
  const auto report =
      LintNnf(ReadCorpus("invalid_circuits/and_not_decomposable.nnf"),
              NnfDialect::kDnnf);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.HasRule(rules::kDnnfDecomposable));
  const Diagnostic* d = report.FindRule(rules::kDnnfDecomposable);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->witness, "variable 1");
}

TEST(AnalysisCorpus, NonDeterministicOrIsFlaggedViaSat) {
  const auto report =
      LintNnf(ReadCorpus("invalid_circuits/or_not_deterministic.nnf"),
              NnfDialect::kDdnnf);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.HasRule(rules::kDdnnfDeterministic));
  // The witness is a model satisfying both or-inputs at once.
  const Diagnostic* d = report.FindRule(rules::kDdnnfDeterministic);
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->witness.empty());
}

TEST(AnalysisCorpus, NonDeterministicOrOnlyWarnsWithoutSat) {
  const auto report =
      LintNnf(ReadCorpus("invalid_circuits/or_not_deterministic.nnf"),
              NnfDialect::kDdnnf, /*sat_determinism=*/false);
  EXPECT_TRUE(report.clean());  // unproved, not disproved
  EXPECT_TRUE(report.HasRule(rules::kDdnnfUnverified));
}

TEST(AnalysisCorpus, UnsmoothOrIsAnErrorOnlyForSmoothDialect) {
  const std::string text = ReadCorpus("invalid_circuits/or_not_smooth.nnf");
  const auto strict = LintNnf(text, NnfDialect::kSmoothDdnnf);
  EXPECT_FALSE(strict.clean());
  EXPECT_TRUE(strict.HasRule(rules::kNnfSmooth));

  // As plain d-DNNF the same circuit is legal (warning only): the
  // counting queries smooth on the fly.
  const auto lenient = LintNnf(text, NnfDialect::kDdnnf);
  EXPECT_TRUE(lenient.clean());
  EXPECT_TRUE(lenient.HasRule(rules::kNnfSmooth));
}

TEST(AnalysisCorpus, UnorderedObddIsFlagged) {
  const auto report = LintNnf(ReadCorpus("invalid_circuits/obdd_unordered.nnf"),
                              NnfDialect::kObdd);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.HasRule(rules::kObddOrdered));
}

TEST(AnalysisCorpus, UnreducedObddIsFlagged) {
  const auto report =
      LintNnf(ReadCorpus("invalid_circuits/obdd_not_reduced.nnf"),
              NnfDialect::kObdd);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.HasRule(rules::kObddReduced));
}

TEST(AnalysisCorpus, UncompressedSddIsFlagged) {
  const Vtree vtree = CorpusVtree("valid_circuits/two_vars.vtree");
  DiagnosticReport report;
  AnalyzeSddFile(ReadCorpus("invalid_circuits/sdd_uncompressed.sdd"), vtree,
                 SddAnalysisOptions{}, report);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.HasRule(rules::kSddCompressed));
}

TEST(AnalysisCorpus, UntrimmedSddIsFlagged) {
  const Vtree vtree = CorpusVtree("valid_circuits/two_vars.vtree");
  DiagnosticReport report;
  AnalyzeSddFile(ReadCorpus("invalid_circuits/sdd_untrimmed.sdd"), vtree,
                 SddAnalysisOptions{}, report);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.HasRule(rules::kSddTrimmed));
}

TEST(AnalysisCorpus, OverlappingPrimesAreFlagged) {
  const Vtree vtree = CorpusVtree("valid_circuits/two_vars.vtree");
  DiagnosticReport report;
  AnalyzeSddFile(ReadCorpus("invalid_circuits/sdd_bad_partition.sdd"), vtree,
                 SddAnalysisOptions{}, report);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.HasRule(rules::kSddPartition));
}

TEST(AnalysisCorpus, NonExhaustivePrimesAreFlagged) {
  const Vtree vtree = CorpusVtree("valid_circuits/four_vars.vtree");
  DiagnosticReport report;
  AnalyzeSddFile(ReadCorpus("invalid_circuits/sdd_nonexhaustive.sdd"), vtree,
                 SddAnalysisOptions{}, report);
  EXPECT_FALSE(report.clean());
  ASSERT_TRUE(report.HasRule(rules::kSddPartition));
  EXPECT_NE(report.FindRule(rules::kSddPartition)
                ->message.find("not exhaustive"),
            std::string::npos);
}

TEST(AnalysisCorpus, UnnormalizedPsddIsFlagged) {
  const Vtree vtree = CorpusVtree("valid_circuits/two_vars.vtree");
  DiagnosticReport report;
  AnalyzePsddFile(ReadCorpus("invalid_circuits/psdd_unnormalized.psdd"), vtree,
                  report);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.HasRule(rules::kPsddNormalized));
}

// --- valid corpus: zero diagnostics ---

TEST(AnalysisCorpus, CleanDdnnfHasNoDiagnostics) {
  const auto report = LintNnf(ReadCorpus("valid_circuits/clean_ddnnf.nnf"),
                              NnfDialect::kSmoothDdnnf);
  EXPECT_TRUE(report.empty()) << report.ToText("clean_ddnnf.nnf");
}

TEST(AnalysisCorpus, CleanObddHasNoDiagnostics) {
  const auto report = LintNnf(ReadCorpus("valid_circuits/clean_obdd.nnf"),
                              NnfDialect::kObdd);
  EXPECT_TRUE(report.empty()) << report.ToText("clean_obdd.nnf");
}

TEST(AnalysisCorpus, CleanSddHasNoDiagnostics) {
  const Vtree vtree = CorpusVtree("valid_circuits/two_vars.vtree");
  DiagnosticReport report;
  AnalyzeSddFile(ReadCorpus("valid_circuits/clean_sdd.sdd"), vtree,
                 SddAnalysisOptions{}, report);
  EXPECT_TRUE(report.empty()) << report.ToText("clean_sdd.sdd");
}

TEST(AnalysisCorpus, CleanPsddHasNoDiagnostics) {
  const Vtree vtree = CorpusVtree("valid_circuits/two_vars.vtree");
  DiagnosticReport report;
  AnalyzePsddFile(ReadCorpus("valid_circuits/clean_psdd.psdd"), vtree, report);
  EXPECT_TRUE(report.empty()) << report.ToText("clean_psdd.psdd");
}

// --- artifacts produced by the library verify clean ---

TEST(AnalyzerOnArtifacts, CompilerOutputIsCleanDecisionDnnf) {
  const Cnf cnf = RandomCnf(12, 40, 3, 7);
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, mgr);
  DiagnosticReport report;
  NnfAnalysisOptions options;
  options.dialect = NnfDialect::kDecisionDnnf;
  AnalyzeNnf(mgr, root, options, report);
  EXPECT_TRUE(report.clean()) << report.ToText("compiler output");

  // The full d-DNNF ladder, SAT-verified, also passes.
  DiagnosticReport ddnnf_report;
  options.dialect = NnfDialect::kDdnnf;
  AnalyzeNnf(mgr, root, options, ddnnf_report);
  EXPECT_TRUE(ddnnf_report.clean()) << ddnnf_report.ToText("compiler output");

  // And after smoothing, the strictest dialect is diagnostic-free.
  const NnfId smooth = nnf_oracle::Smooth(mgr, root, cnf.num_vars());
  DiagnosticReport smooth_report;
  options.dialect = NnfDialect::kSmoothDdnnf;
  AnalyzeNnf(mgr, smooth, options, smooth_report);
  EXPECT_TRUE(smooth_report.empty()) << smooth_report.ToText("smoothed");
}

TEST(AnalyzerOnArtifacts, ObddManagerOutputIsReducedAndOrdered) {
  ObddManager mgr(Vtree::IdentityOrder(6));
  ObddId f = mgr.False();
  // Odd parity of 6 variables: a worst case for sharing.
  for (Var v = 0; v < 6; ++v) f = mgr.Xor(f, mgr.LiteralNode(Pos(v)));
  DiagnosticReport report;
  AnalyzeObdd(mgr, f, report);
  EXPECT_TRUE(report.empty()) << report.ToText("parity obdd");
}

TEST(AnalyzerOnArtifacts, SddCompileIsCleanInManagerAndFileForm) {
  const Cnf cnf = RandomCnf(10, 30, 3, 11);
  SddManager mgr(Vtree::Balanced(Vtree::IdentityOrder(10)));
  const SddId f = CompileCnf(mgr, cnf);
  DiagnosticReport report;
  AnalyzeSdd(mgr, f, SddAnalysisOptions{}, report);
  EXPECT_TRUE(report.empty()) << report.ToText("sdd manager");

  if (!mgr.IsConstant(f)) {
    DiagnosticReport file_report;
    AnalyzeSddFile(WriteSdd(mgr, f), mgr.vtree(), SddAnalysisOptions{},
                   file_report);
    EXPECT_TRUE(file_report.empty()) << file_report.ToText("sdd file");
  }
}

TEST(AnalyzerOnArtifacts, LearnedPsddStaysNormalized) {
  SddManager mgr(Vtree::Balanced(Vtree::IdentityOrder(4)));
  Cnf cnf(4);
  cnf.AddClauseDimacs({1, 2});
  cnf.AddClauseDimacs({-1, 3, 4});
  Psdd psdd(mgr, CompileCnf(mgr, cnf));
  DiagnosticReport report;
  AnalyzePsdd(psdd, report);
  EXPECT_TRUE(report.clean()) << report.ToText("fresh psdd");

  // Pure maximum-likelihood learning on a single example drives most
  // parameters to 0/1: still normalized (clean), but support warnings.
  std::vector<Assignment> data = {{true, false, true, false}};
  psdd.LearnParameters(data, {}, /*laplace=*/0.0);
  DiagnosticReport learned;
  AnalyzePsdd(psdd, learned);
  EXPECT_TRUE(learned.clean()) << learned.ToText("learned psdd");
  EXPECT_TRUE(learned.HasRule(rules::kPsddSupport));

  // With a Laplace prior no parameter is degenerate.
  psdd.LearnParameters(data, {}, /*laplace=*/1.0);
  DiagnosticReport smoothed;
  AnalyzePsdd(psdd, smoothed);
  EXPECT_TRUE(smoothed.empty()) << smoothed.ToText("laplace psdd");
}

// --- reporting layer ---

TEST(DiagnosticReportTest, CountsSeveritiesAndCapsRetention) {
  DiagnosticReport report;
  report.set_max_diagnostics(2);
  for (int i = 0; i < 5; ++i) {
    report.Add(Severity::kError, rules::kNnfWellFormed,
               static_cast<uint64_t>(i), "", "broken");
  }
  report.Add(Severity::kWarning, rules::kNnfSmooth, 9, "", "meh");
  EXPECT_EQ(report.num_errors(), 5u);
  EXPECT_EQ(report.num_warnings(), 1u);
  EXPECT_EQ(report.size(), 2u);  // retention capped, counters exact
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.HasRule(rules::kNnfWellFormed));
  EXPECT_FALSE(report.HasRule(rules::kNnfSmooth));  // dropped past the cap
}

TEST(DiagnosticReportTest, RendersTextAndJson) {
  DiagnosticReport report;
  report.Add(Severity::kError, rules::kDnnfDecomposable, 7, "variable 3",
             "inputs share \"variable\" 3");
  const std::string text = report.ToText("f.nnf");
  EXPECT_NE(text.find("f.nnf"), std::string::npos);
  EXPECT_NE(text.find("dnnf.decomposable"), std::string::npos);
  const std::string json = report.ToJson("f.nnf");
  EXPECT_NE(json.find("\"clean\":false"), std::string::npos);
  EXPECT_NE(json.find("\\\"variable\\\""), std::string::npos);  // escaping
}

TEST(RulesTest, RegistryCoversEveryRuleId) {
  size_t count = 0;
  ASSERT_NE(AllRules(&count), nullptr);
  EXPECT_GE(count, 18u);
  EXPECT_NE(RuleSummary(rules::kSddCompressed), nullptr);
  EXPECT_EQ(RuleSummary("no.such.rule"), nullptr);
}

// --- Tseitin encoder ---

TEST(TseitinTest, EncodingIsEquisatisfiableWithTheCircuit) {
  NnfManager mgr;
  // f = (x1 & x2) | (~x1 & x3)
  const NnfId f = mgr.Or(mgr.And(mgr.Literal(Pos(0)), mgr.Literal(Pos(1))),
                         mgr.And(mgr.Literal(Neg(0)), mgr.Literal(Pos(2))));
  CircuitCnf encoder(3);
  const Lit root = encoder.Encode(mgr, f);
  SatSolver solver;
  solver.AddCnf(encoder.cnf());
  // The circuit is satisfiable...
  EXPECT_EQ(solver.SolveAssuming({root}), SatSolver::Outcome::kSat);
  // ... and so is its complement ...
  EXPECT_EQ(solver.SolveAssuming({~root}), SatSolver::Outcome::kSat);
  // ... but not together with an assignment falsifying both disjuncts.
  EXPECT_EQ(solver.SolveAssuming({root, Neg(1), Neg(2)}),
            SatSolver::Outcome::kUnsat);
}

}  // namespace
}  // namespace tbc
