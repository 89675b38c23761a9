#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/random.h"
#include "base/strings.h"
#include "logic/formula.h"
#include "analysis/nnf_analyzer.h"
#include "analysis/rules.h"
#include "analysis/sdd_analyzer.h"
#include "nnf/queries.h"
#include "nnf_oracle.h"
#include "sdd/compile.h"
#include "sdd/from_obdd.h"
#include "sdd/io.h"
#include "sdd/minimize.h"
#include "sdd/sdd.h"
#include "sdd_recompile_oracle.h"
#include "small_stack.h"
#include "vtree/vtree.h"

namespace tbc {
namespace {

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

// The paper's course constraint: (P∨L) ∧ (A⇒P) ∧ (K⇒(A∨L)), with
// A=0, K=1, L=2, P=3 (9 of 16 models; Figures 9 and 13).
Cnf CourseConstraint() {
  Cnf cnf(4);
  cnf.AddClauseDimacs({4, 3});       // P ∨ L
  cnf.AddClauseDimacs({-1, 4});      // A ⇒ P
  cnf.AddClauseDimacs({-2, 1, 3});   // K ⇒ (A ∨ L)
  return cnf;
}

// The paper's Fig 10(a) vtree over A,K,L,P: ((L K) (P A)).
Vtree PaperVtree() { return Vtree::Balanced({2, 1, 3, 0}); }

TEST(SddTest, ConstantsAndLiterals) {
  SddManager m(Vtree::Balanced({0, 1, 2}));
  EXPECT_EQ(m.Conjoin(m.True(), m.False()), m.False());
  EXPECT_EQ(m.Disjoin(m.True(), m.False()), m.True());
  SddId x = m.LiteralNode(Pos(0));
  EXPECT_TRUE(m.IsLiteral(x));
  EXPECT_EQ(m.Negate(x), m.LiteralNode(Neg(0)));
  EXPECT_EQ(m.Negate(m.Negate(x)), x);
  EXPECT_EQ(m.Conjoin(x, m.Negate(x)), m.False());
  EXPECT_EQ(m.Disjoin(x, m.Negate(x)), m.True());
}

TEST(SddTest, ApplyMatchesSemantics) {
  for (uint64_t seed = 0; seed < 15; ++seed) {
    Cnf cnf = RandomCnf(8, 18, 3, seed + 10);
    SddManager m(Vtree::Balanced(Vtree::IdentityOrder(8)));
    SddId f = CompileCnf(m, cnf);
    for (int bits = 0; bits < 256; ++bits) {
      Assignment a(8);
      for (Var v = 0; v < 8; ++v) a[v] = (bits >> v) & 1;
      ASSERT_EQ(m.Evaluate(f, a), cnf.Evaluate(a)) << "seed " << seed;
    }
  }
}

TEST(SddTest, CanonicityEquivalentFormulasSameNode) {
  SddManager m(Vtree::Balanced({0, 1, 2, 3}));
  // (x0 ∧ x1) ∨ (x0 ∧ x2) == x0 ∧ (x1 ∨ x2).
  SddId a = m.Disjoin(m.Conjoin(m.LiteralNode(Pos(0)), m.LiteralNode(Pos(1))),
                      m.Conjoin(m.LiteralNode(Pos(0)), m.LiteralNode(Pos(2))));
  SddId b = m.Conjoin(m.LiteralNode(Pos(0)),
                      m.Disjoin(m.LiteralNode(Pos(1)), m.LiteralNode(Pos(2))));
  EXPECT_EQ(a, b);
  // De Morgan.
  SddId c = m.Negate(m.Conjoin(m.LiteralNode(Pos(0)), m.LiteralNode(Pos(3))));
  SddId d = m.Disjoin(m.LiteralNode(Neg(0)), m.LiteralNode(Neg(3)));
  EXPECT_EQ(c, d);
}

TEST(SddTest, CourseConstraintHasNineModels) {
  SddManager m(PaperVtree());
  SddId f = CompileCnf(m, CourseConstraint());
  EXPECT_EQ(m.ModelCount(f), BigUint(9));
  EXPECT_GT(m.Size(f), 0u);
}

TEST(SddTest, ModelCountMatchesBruteForceAcrossVtrees) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Cnf cnf = RandomCnf(9, 22, 3, seed + 70);
    const uint64_t expected = cnf.CountModelsBruteForce();
    for (int shape = 0; shape < 3; ++shape) {
      Vtree vt = shape == 0   ? Vtree::Balanced(Vtree::IdentityOrder(9))
                 : shape == 1 ? Vtree::RightLinear(Vtree::IdentityOrder(9))
                              : Vtree::LeftLinear(Vtree::IdentityOrder(9));
      SddManager m(std::move(vt));
      SddId f = CompileCnf(m, cnf);
      ASSERT_EQ(m.ModelCount(f).ToU64(), expected)
          << "seed " << seed << " shape " << shape;
    }
  }
}

TEST(SddTest, ExportedNnfIsDecomposableAndDeterministic) {
  Cnf cnf = RandomCnf(8, 16, 3, 42);
  SddManager m(Vtree::Balanced(Vtree::IdentityOrder(8)));
  SddId f = CompileCnf(m, cnf);
  NnfManager nnf;
  NnfId root = m.ToNnf(f, nnf);
  EXPECT_EQ(nnf_oracle::RuleIds(nnf, root, NnfDialect::kDnnf),
            std::set<std::string>{});
  EXPECT_TRUE(nnf_oracle::IsDeterministicExhaustive(nnf, root, 8));
}

TEST(SddTest, ConditionMatchesCnfCondition) {
  Cnf cnf = RandomCnf(8, 16, 3, 21);
  SddManager m(Vtree::Balanced(Vtree::IdentityOrder(8)));
  SddId f = CompileCnf(m, cnf);
  for (Var v = 0; v < 8; ++v) {
    for (bool sign : {false, true}) {
      const Lit l(v, sign);
      SddId cond = m.Condition(f, l);
      Cnf cnf_cond = cnf.Condition(l);
      for (int bits = 0; bits < 256; ++bits) {
        Assignment a(8);
        for (Var u = 0; u < 8; ++u) a[u] = (bits >> u) & 1;
        ASSERT_EQ(m.Evaluate(cond, a), cnf_cond.Evaluate(a));
      }
    }
  }
}

TEST(SddTest, ConditionThenDisjoinIsExists) {
  SddManager m(Vtree::Balanced({0, 1, 2}));
  SddId f = m.Conjoin(m.LiteralNode(Pos(0)), m.LiteralNode(Pos(1)));
  EXPECT_EQ(m.Exists(f, 0), m.LiteralNode(Pos(1)));
  EXPECT_EQ(m.Exists(m.Exists(f, 0), 1), m.True());
}

TEST(SddTest, WmcMatchesBruteForce) {
  Cnf cnf = RandomCnf(7, 14, 3, 5);
  SddManager m(Vtree::Balanced(Vtree::IdentityOrder(7)));
  SddId f = CompileCnf(m, cnf);
  WeightMap w(7);
  Rng rng(11);
  for (Var v = 0; v < 7; ++v) {
    double p = rng.Uniform();
    w.Set(Pos(v), p);
    w.Set(Neg(v), 1.0 - p);
  }
  double brute = 0.0;
  for (int bits = 0; bits < 128; ++bits) {
    Assignment a(7);
    for (Var v = 0; v < 7; ++v) a[v] = (bits >> v) & 1;
    if (!cnf.Evaluate(a)) continue;
    double term = 1.0;
    for (Var v = 0; v < 7; ++v) term *= w[Lit(v, a[v])];
    brute += term;
  }
  EXPECT_NEAR(m.Wmc(f, w), brute, 1e-12);
}

TEST(SddTest, RightLinearVtreeYieldsObddStructure) {
  // With a right-linear vtree every decision node's primes are literals of
  // a single variable (x, ¬x): the OBDD correspondence of Fig 10(c)/11.
  Cnf cnf = RandomCnf(8, 16, 3, 31);
  SddManager m(Vtree::RightLinear(Vtree::IdentityOrder(8)));
  SddId f = CompileCnf(m, cnf);
  std::set<SddId> seen;
  std::vector<SddId> stack = {f};
  while (!stack.empty()) {
    SddId g = stack.back();
    stack.pop_back();
    if (!seen.insert(g).second || !m.IsDecision(g)) continue;
    const auto& elems = m.elements(g);
    EXPECT_LE(elems.size(), 2u);
    for (const auto& [p, s] : elems) {
      EXPECT_TRUE(m.IsLiteral(p) || m.IsConstant(p));
      stack.push_back(s);
    }
  }
}

TEST(SddTest, CompileFormulaAgainstEvaluate) {
  FormulaStore fs;
  FormulaId a = fs.VarNode(0), b = fs.VarNode(1), c = fs.VarNode(2),
            d = fs.VarNode(3);
  FormulaId f = fs.Iff(fs.Xor(a, b), fs.Implies(c, d));
  SddManager m(Vtree::Balanced({0, 1, 2, 3}));
  SddId g = CompileFormula(m, fs, f);
  for (int bits = 0; bits < 16; ++bits) {
    Assignment asg(4);
    for (Var v = 0; v < 4; ++v) asg[v] = (bits >> v) & 1;
    EXPECT_EQ(m.Evaluate(g, asg), fs.Evaluate(f, asg));
  }
}

TEST(SddTest, CubeAndClause) {
  SddManager m(Vtree::Balanced({0, 1, 2}));
  SddId cube = CompileCube(m, {Pos(0), Neg(2)});
  EXPECT_EQ(m.ModelCount(cube), BigUint(2));
  SddId clause = CompileClause(m, {Pos(0), Neg(2)});
  EXPECT_EQ(m.ModelCount(clause), BigUint(6));
  EXPECT_EQ(CompileClause(m, {}), m.False());
  EXPECT_EQ(CompileCube(m, {}), m.True());
}

TEST(SddTest, SizeSensitiveToVtree) {
  // (x0&x3) | (x1&x4) | (x2&x5): a vtree pairing (xi, xi+3) is much
  // better than one separating the halves — the paper's point that SDD
  // size ranges from linear to exponential with the vtree.
  FormulaStore fs;
  std::vector<FormulaId> terms;
  for (Var i = 0; i < 3; ++i) {
    terms.push_back(fs.And(fs.VarNode(i), fs.VarNode(i + 3)));
  }
  FormulaId f = fs.Or(terms);
  SddManager good(Vtree::Balanced({0, 3, 1, 4, 2, 5}));
  SddManager bad(Vtree::RightLinear({0, 1, 2, 3, 4, 5}));
  SddId fg = CompileFormula(good, fs, f);
  SddId fb = CompileFormula(bad, fs, f);
  EXPECT_EQ(good.ModelCount(fg), bad.ModelCount(fb));
  EXPECT_LT(good.Size(fg), bad.Size(fb));
}

TEST(SddTest, NegationIsInvolutionOnRandomFormulas) {
  Cnf cnf = RandomCnf(8, 16, 3, 77);
  SddManager m(Vtree::Balanced(Vtree::IdentityOrder(8)));
  SddId f = CompileCnf(m, cnf);
  SddId nf = m.Negate(f);
  EXPECT_EQ(m.Negate(nf), f);
  EXPECT_EQ(m.Conjoin(f, nf), m.False());
  EXPECT_EQ(m.Disjoin(f, nf), m.True());
  EXPECT_EQ((m.ModelCount(f) + m.ModelCount(nf)), BigUint(256));
}

TEST(SddTest, ApplyOnDifferentVtreeSubtrees) {
  // Conjoin nodes living in disjoint subtrees (exercises the LCA path).
  SddManager m(Vtree::Balanced({0, 1, 2, 3}));
  SddId left = m.Conjoin(m.LiteralNode(Pos(0)), m.LiteralNode(Neg(1)));
  SddId right = m.Disjoin(m.LiteralNode(Pos(2)), m.LiteralNode(Pos(3)));
  SddId both = m.Conjoin(left, right);
  EXPECT_EQ(m.ModelCount(both), BigUint(3));
  SddId either = m.Disjoin(left, right);
  EXPECT_EQ(m.ModelCount(either).ToU64(), 4u + 12u - 3u);
}

TEST(SddIoTest, RoundTripPreservesFunction) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Cnf cnf = RandomCnf(8, 18, 3, seed + 400);
    SddManager m(Vtree::Balanced(Vtree::IdentityOrder(8)));
    SddId f = CompileCnf(m, cnf);
    const std::string text = WriteSdd(m, f);
    auto parsed = ReadSdd(m, text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    // Canonicity: reading back into the same manager gives the same node.
    EXPECT_EQ(parsed.value(), f) << "seed " << seed;
  }
}

TEST(SddIoTest, RoundTripIntoFreshManager) {
  Cnf cnf = RandomCnf(7, 16, 3, 77);
  SddManager m1(Vtree::Balanced(Vtree::IdentityOrder(7)));
  SddId f = CompileCnf(m1, cnf);
  const std::string sdd_text = WriteSdd(m1, f);
  const std::string vtree_text = m1.vtree().ToFileString();

  auto vtree = Vtree::Parse(vtree_text);
  ASSERT_TRUE(vtree.ok());
  SddManager m2(std::move(vtree).value());
  auto g = ReadSdd(m2, sdd_text);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(m2.ModelCount(g.value()).ToU64(), cnf.CountModelsBruteForce());
  for (int bits = 0; bits < 128; ++bits) {
    Assignment a(7);
    for (Var v = 0; v < 7; ++v) a[v] = (bits >> v) & 1;
    ASSERT_EQ(m2.Evaluate(g.value(), a), cnf.Evaluate(a));
  }
}

TEST(SddIoTest, ConstantsAndErrors) {
  SddManager m(Vtree::Balanced({0, 1}));
  auto t = ReadSdd(m, WriteSdd(m, m.True()));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value(), m.True());
  EXPECT_FALSE(ReadSdd(m, "").ok());
  EXPECT_FALSE(ReadSdd(m, "L 0 0 1\n").ok());            // missing header
  EXPECT_FALSE(ReadSdd(m, "sdd 1\nD 0 1 1 5 6\n").ok()); // forward refs
  EXPECT_FALSE(ReadSdd(m, "sdd 1\nZ 0\n").ok());
}

std::string ReadCorpusFile(const std::string& name) {
  std::ifstream in(std::string(TBC_CORPUS_DIR) + "/" + name);
  EXPECT_TRUE(in) << "missing corpus file " << name;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Files that are not SDDs for balanced vtrees, each of which an earlier
// ReadSdd loaded (and then counted wrongly): the line ReadSdd must refuse
// and the rule the linter reports.
struct NotAnSdd {
  const char* name;
  size_t num_vars;
  std::string text;
  size_t line;
  const char* rule;
};

std::vector<NotAnSdd> NotAnSddFiles() {
  return {
      {"literal at a vtree position that does not exist", 2,
       "sdd 1\nL 0 999 1\n", 2, rules::kSddParse},
      {"decision at a vtree leaf, denoting ⊥", 4,
       "sdd 3\nL 0 0 1\nL 1 0 -1\nD 2 0 2 0 1 1 0\n", 4, rules::kSddStructured},
      {"primes over x3 at the node over {x1, x2}", 4,
       "sdd 5\nL 0 4 3\nL 1 4 -3\nL 2 2 2\nL 3 2 -2\nD 4 1 2 0 2 1 3\n", 6,
       rules::kSddStructured},
      {"primes x1 and ⊤ overlap", 2,
       "sdd 4\nL 0 0 1\nT 1\nL 2 2 2\nD 3 1 2 0 1 1 2\n", 5,
       rules::kSddPartition},
      {"invalid_circuits/sdd_bad_partition.sdd", 2,
       ReadCorpusFile("invalid_circuits/sdd_bad_partition.sdd"), 7,
       rules::kSddPartition},
      // 4 + 2k wraps to 6 in 64 bits: the element loop would read past the
      // line's tokens.
      {"element count that wraps the arity check", 2,
       "sdd 2\nT 0\nD 1 1 9223372036854775809 0 0\n", 3, rules::kSddParse},
  };
}

TEST(SddIoTest, RefusesWhatIsNotAnSdd) {
  for (const NotAnSdd& file : NotAnSddFiles()) {
    const Vtree vtree = Vtree::Balanced(Vtree::IdentityOrder(file.num_vars));
    SddManager m(vtree);
    auto r = ReadSdd(m, file.text);
    ASSERT_FALSE(r.ok()) << file.name;
    EXPECT_EQ(r.error_code(), StatusCode::kInvalidInput) << file.name;
    EXPECT_EQ(r.status().message().rfind("line " + std::to_string(file.line) + ":", 0),
              0u)
        << file.name << ": " << r.status().message();
    DiagnosticReport report;
    AnalyzeSddFile(file.text, vtree, SddAnalysisOptions{}, report);
    EXPECT_TRUE(report.HasRule(file.rule))
        << file.name << ": " << report.ToText(file.name);
  }
}

// The loader and the linter read .sdd text through one parser and judge
// decisions by one element check, so they agree: a file the linter calls
// clean loads and counts right, and a file that loads breaks no rule the
// loader is meant to enforce. Inputs: the .sdd corpus, WriteSdd exports of
// compiled CNFs, the files above, and seeded one-token mutations of each.
TEST(SddIoTest, ReaderAgreesWithTheLinter) {
  std::vector<std::pair<std::string, size_t>> inputs;  // text, num_vars
  for (const char* name :
       {"sdd_bad_literal_var.sdd", "sdd_bad_node_id.sdd",
        "sdd_empty_partition.sdd", "sdd_forward_ref.sdd",
        "sdd_nonexhaustive_primes.sdd", "crlf/crlf.sdd",
        "valid_circuits/clean_sdd.sdd", "invalid_circuits/sdd_bad_partition.sdd",
        "invalid_circuits/sdd_nonexhaustive.sdd",
        "invalid_circuits/sdd_uncompressed.sdd",
        "invalid_circuits/sdd_untrimmed.sdd"}) {
    for (size_t n : {2, 3, 4}) inputs.push_back({ReadCorpusFile(name), n});
  }
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const size_t n = 3 + seed % 3;
    SddManager m(Vtree::Balanced(Vtree::IdentityOrder(n)));
    inputs.push_back({WriteSdd(m, CompileCnf(m, RandomCnf(n, n + 1, 2, seed + 900))), n});
  }
  for (const NotAnSdd& file : NotAnSddFiles()) {
    inputs.push_back({file.text, file.num_vars});
  }

  const std::vector<std::string> replacements = {
      "0", "1", "2", "3", "4", "5", "6", "-1", "-2", "-3", "T", "F", "L", "D", "x"};
  Rng rng(2025);
  size_t clean = 0, loaded = 0, checked = 0;
  auto check = [&](const std::string& text, size_t num_vars) {
    ++checked;
    const Vtree vtree = Vtree::Balanced(Vtree::IdentityOrder(num_vars));
    DiagnosticReport report;
    AnalyzeSddFile(text, vtree, SddAnalysisOptions{}, report);
    SddManager m(vtree);
    auto r = ReadSdd(m, text);
    if (report.clean()) {
      ++clean;
      ASSERT_TRUE(r.ok()) << text << r.status().message();
    }
    if (!r.ok()) {
      EXPECT_EQ(r.error_code(), StatusCode::kInvalidInput) << text;
      return;
    }
    ++loaded;
    for (const char* rule :
         {rules::kSddParse, rules::kSddStructured, rules::kSddPartition}) {
      EXPECT_FALSE(report.HasRule(rule)) << text << report.ToText("loaded");
    }
    uint64_t models = 0;
    for (uint64_t bits = 0; bits < (uint64_t{1} << num_vars); ++bits) {
      Assignment a(num_vars);
      for (Var v = 0; v < num_vars; ++v) a[v] = (bits >> v) & 1;
      models += m.Evaluate(*r, a) ? 1 : 0;
    }
    EXPECT_EQ(m.ModelCount(*r), BigUint(models)) << text;
  };
  for (const auto& [text, num_vars] : inputs) {
    check(text, num_vars);
    std::vector<std::vector<std::string>> lines;
    for (const std::string& line : SplitChar(text, '\n')) {
      lines.push_back(SplitWhitespace(line));
    }
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<std::vector<std::string>> mutated = lines;
      std::vector<std::string>* line = &mutated[rng.Below(mutated.size())];
      if (line->empty()) continue;
      (*line)[rng.Below(line->size())] = replacements[rng.Below(replacements.size())];
      std::string out;
      for (const std::vector<std::string>& tokens : mutated) {
        out += Join(tokens, " ") + "\n";
      }
      check(out, num_vars);
    }
  }
  // The mutations must reach both sides of the agreement.
  EXPECT_GT(clean, 50u);
  EXPECT_LT(loaded, checked / 2);
}

// WriteSdd's bytes, recorded before the emitter became iterative: file
// ids follow a recursive descent's postorder, elements first to last.
TEST(SddIoTest, WriteSddBytesArePinned) {
  SddManager paper(PaperVtree());
  EXPECT_EQ(WriteSdd(paper, CompileCnf(paper, CourseConstraint())),
            "sdd 15\n"
            "L 0 0 3\nL 1 4 4\nT 2\nL 3 4 -4\nL 4 6 -1\nD 5 5 2 1 2 3 4\n"
            "F 6\nL 7 0 -3\nL 8 2 -2\nD 9 1 2 0 6 7 8\nL 10 2 2\n"
            "D 11 1 2 0 6 7 10\nL 12 6 1\nD 13 5 2 1 12 3 6\n"
            "D 14 3 3 0 5 9 1 11 13\n");
  // After in-place edits node ids no longer ascend from children to
  // parents; the file order must not care.
  SddManager m(Vtree::Balanced(Vtree::IdentityOrder(6)));
  SddId f = CompileCnf(m, RandomCnf(6, 10, 3, 5));
  ASSERT_TRUE(m.RotateLeftInPlace(m.vtree().root()).applied);
  ASSERT_TRUE(m.SwapChildrenInPlace(m.vtree().root()).applied);
  f = m.Resolve(f);
  ASSERT_EQ(m.vtree().ToString(), "(5 (((0 1) 2) (3 4)))");
  EXPECT_EQ(WriteSdd(m, f),
            "sdd 33\n"
            "L 0 0 6\nL 1 2 1\nF 2\nL 3 2 -1\nL 4 4 2\nD 5 3 2 1 2 3 4\n"
            "L 6 6 -3\nT 7\nL 8 4 -2\nD 9 3 2 1 7 3 8\nD 10 5 2 5 6 9 2\n"
            "L 11 8 4\nL 12 8 -4\nL 13 10 5\nD 14 9 2 11 2 12 13\n"
            "D 15 3 2 1 4 3 2\nD 16 3 2 1 8 3 7\nD 17 5 2 15 6 16 2\n"
            "D 18 9 2 11 7 12 13\nL 19 6 3\nD 20 5 2 1 19 3 2\n"
            "D 21 3 2 1 2 3 8\nD 22 3 2 1 8 3 2\nD 23 5 4 21 7 22 6 15 2 5 19\n"
            "D 24 7 4 10 14 17 18 20 11 23 2\nL 25 0 -6\nD 26 5 2 8 2 4 19\n"
            "D 27 3 2 1 4 3 7\nD 28 5 2 22 19 27 2\nD 29 5 3 4 2 21 7 22 6\n"
            "D 30 5 2 8 2 4 6\nD 31 7 4 26 2 28 18 29 13 30 14\n"
            "D 32 1 2 0 24 25 31\n");
  auto parsed = ReadSdd(m, WriteSdd(m, f));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value(), f);
}

// A 2,000-literal conjunction on a right-linear vtree is a 2,000-deep
// chain of decision nodes. Writing it must not need stack proportional to
// that depth: it runs on a thread with a 1 MB stack.
TEST(SddIoTest, WriteSddOfDeepChainFitsASmallStack) {
  constexpr size_t kVars = 2000;
  SddManager m(Vtree::RightLinear(Vtree::IdentityOrder(kVars)));
  SddId f = m.True();
  for (size_t i = kVars; i-- > 0;) {  // innermost first: each Conjoin is O(1)
    f = m.Conjoin(m.LiteralNode(Pos(static_cast<Var>(i))), f);
  }
  ASSERT_EQ(m.NumDecisionNodes(f), kVars - 1);
  std::string text;
  RunOnSmallStack([&] { text = WriteSdd(m, f); });
  // Every positive and negative literal, the chain's decisions and ⊥.
  EXPECT_EQ(text.substr(0, text.find('\n')),
            "sdd " + std::to_string(kVars + (kVars - 1) + (kVars - 1) + 1));
  auto parsed = ReadSdd(m, text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value(), f);
}

TEST(SddMinimizeTest, VtreeOperationsPreserveVariables) {
  Vtree t = Vtree::Balanced({0, 1, 2, 3, 4});
  for (VtreeId v = 0; v < t.num_nodes(); ++v) {
    for (const std::optional<Vtree>& changed :
         {RotateRight(t, v), RotateLeft(t, v), SwapChildren(t, v)}) {
      if (!changed.has_value()) continue;  // shape did not permit the move
      std::vector<Var> below = changed->VarsBelow(changed->root());
      std::sort(below.begin(), below.end());
      EXPECT_EQ(below, Vtree::IdentityOrder(5));
    }
  }
  // Concrete shapes.
  Vtree b = Vtree::Balanced({0, 1, 2, 3});  // ((0 1) (2 3))
  EXPECT_EQ(RotateRight(b, b.root())->ToString(), "(0 (1 (2 3)))");
  EXPECT_EQ(RotateLeft(b, b.root())->ToString(), "(((0 1) 2) 3)");
  EXPECT_EQ(SwapChildren(b, b.root())->ToString(), "((2 3) (0 1))");
  // Shape mismatches now report inapplicability instead of silently
  // returning the unchanged vtree.
  EXPECT_FALSE(RotateRight(b, b.LeafOfVar(0)).has_value());
  EXPECT_FALSE(SwapChildren(b, b.LeafOfVar(0)).has_value());
  // (0 (1 (2 3))) cannot rotate right at the root: its left child is a leaf.
  const Vtree rl = Vtree::RightLinear(Vtree::IdentityOrder(4));
  EXPECT_FALSE(RotateRight(rl, rl.root()).has_value());
  // Rotations at the same node are exact inverses.
  const Vtree rr = *RotateRight(b, b.root());
  EXPECT_EQ(RotateLeft(rr, b.root())->ToString(), b.ToString());
}

TEST(SddMinimizeTest, SearchNeverIncreasesSizeAndPreservesSemantics) {
  Cnf cnf = RandomCnf(10, 24, 3, 321);
  const Vtree initial = Vtree::RightLinear(Vtree::IdentityOrder(10));
  MinimizeResult r = MinimizeVtree(cnf, initial, /*budget=*/60, /*seed=*/5);
  EXPECT_LE(r.size, r.initial_size);
  EXPECT_EQ(r.iterations, 60u);
  // The minimized vtree still compiles an equivalent function.
  SddManager mgr(r.vtree);
  const SddId f = CompileCnf(mgr, cnf);
  EXPECT_EQ(mgr.ModelCount(f).ToU64(), cnf.CountModelsBruteForce());
}

TEST(SddMinimizeTest, FindsTheGoodVtreeForSeparableFunction) {
  // XOR pairs across halves: x_i != x_{i+4} for i < 4. Under the
  // right-linear identity vtree each pair spans the whole order (big SDD);
  // vtrees pairing (x_i, x_{i+4}) are linear. Search must strictly improve.
  Cnf cnf(8);
  for (Var i = 0; i < 4; ++i) {
    cnf.AddClause({Pos(i), Pos(i + 4)});
    cnf.AddClause({Neg(i), Neg(i + 4)});
  }
  MinimizeResult r = MinimizeVtree(
      cnf, Vtree::RightLinear(Vtree::IdentityOrder(8)), /*budget=*/200, 9);
  EXPECT_LT(r.size, r.initial_size);
  SddManager mgr(r.vtree);
  EXPECT_EQ(mgr.ModelCount(CompileCnf(mgr, cnf)), BigUint(16));
}

TEST(SddTest, UnsatisfiableCnfCompilesToFalse) {
  Cnf cnf(2);
  cnf.AddClauseDimacs({1});
  cnf.AddClauseDimacs({-1});
  SddManager m(Vtree::Balanced({0, 1}));
  EXPECT_EQ(CompileCnf(m, cnf), m.False());
}

// The weight map covers exactly the manager's variables, so a variable
// outside every root is weighed the same way in Wmc(⊤) and in the split
// Wmc(x) + Wmc(¬x).
TEST(SddTest, WmcOfTrueSplitsOnAVariable) {
  SddManager m(Vtree::Balanced(Vtree::IdentityOrder(3)));
  WeightMap w(3);
  w.Set(Pos(0), 0.25);
  w.Set(Neg(0), 0.5);
  w.Set(Pos(2), 3.0);
  EXPECT_EQ(m.Wmc(m.True(), w), 6.0);
  EXPECT_EQ(m.Wmc(m.True(), w), m.Wmc(m.LiteralNode(Pos(0)), w) +
                                     m.Wmc(m.LiteralNode(Neg(0)), w));
}

TEST(SddDeathTest, WmcRefusesAWeightMapOfAnotherSize) {
  SddManager m(Vtree::Balanced(Vtree::IdentityOrder(3)));
  const SddId x = m.LiteralNode(Pos(0));
  EXPECT_DEATH(m.Wmc(x, WeightMap(2)), "weight map");
  EXPECT_DEATH(m.Wmc(x, WeightMap(4)), "weight map");
}

// A formula DAG 20,000 deep compiles on a 1 MB stack: the compile is a
// fold over the formula's ascending reachable list.
TEST(SddTest, DeepFormulaCompilesOnOneMegabyteStack) {
  FormulaStore store;
  const FormulaId f = DeepFormulaChain(store, 10000);
  SddManager m(Vtree::Balanced({0, 1, 2}));
  SddId g = m.False();
  RunOnSmallStack([&] { g = CompileFormula(m, store, f); });
  EXPECT_EQ(g, CompileClause(m, {Pos(1), Pos(2)}));
  EXPECT_EQ(m.ModelCount(g), BigUint(6));
}

// A 100,000-deep OBDD converts on a 1 MB stack; over a right-linear vtree
// the SDD keeps the OBDD's shape, two elements per decision. Vtree
// ancestry is a position-range test, so the conversion stays linear.
TEST(SddTest, DeepObddConvertsOnOneMegabyteStack) {
  constexpr size_t kVars = 100000;
  ObddManager obdd(Vtree::IdentityOrder(kVars));
  const ObddId f = DeepObddChain(obdd);
  SddManager m(Vtree::RightLinear(Vtree::IdentityOrder(kVars)));
  SddId g = m.False();
  RunOnSmallStack([&] { g = ObddToSdd(obdd, f, m); });
  EXPECT_EQ(m.Size(g), 2 * (kVars - 1));
}

}  // namespace
}  // namespace tbc
