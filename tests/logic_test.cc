#include <gtest/gtest.h>

#include "logic/cnf.h"
#include "logic/formula.h"
#include "logic/simplify.h"
#include "logic/lit.h"

namespace tbc {
namespace {

TEST(LitTest, EncodingRoundTrips) {
  Lit a = Pos(0), na = Neg(0);
  EXPECT_EQ(a.var(), 0u);
  EXPECT_TRUE(a.positive());
  EXPECT_FALSE(na.positive());
  EXPECT_EQ(~a, na);
  EXPECT_EQ(~na, a);
  EXPECT_EQ(a.ToDimacs(), 1);
  EXPECT_EQ(na.ToDimacs(), -1);
  EXPECT_EQ(Lit::FromDimacs(-5), Neg(4));
  EXPECT_EQ(Lit::FromCode(Pos(3).code()), Pos(3));
}

TEST(LitTest, EvalUnderAssignment) {
  Assignment a = {true, false};
  EXPECT_TRUE(Eval(Pos(0), a));
  EXPECT_FALSE(Eval(Neg(0), a));
  EXPECT_TRUE(Eval(Neg(1), a));
}

TEST(WeightMapTest, DefaultsToOne) {
  WeightMap w(3);
  EXPECT_DOUBLE_EQ(w[Pos(2)], 1.0);
  w.Set(Neg(1), 0.25);
  EXPECT_DOUBLE_EQ(w[Neg(1)], 0.25);
  EXPECT_DOUBLE_EQ(w[Pos(1)], 1.0);
}

TEST(CnfTest, AddClauseDeduplicatesAndDropsTautologies) {
  Cnf cnf;
  cnf.AddClauseDimacs({1, 1, 2});
  ASSERT_EQ(cnf.num_clauses(), 1u);
  EXPECT_EQ(cnf.clause(0).size(), 2u);
  cnf.AddClauseDimacs({1, -1, 3});  // tautology -> dropped, vars unchanged
  EXPECT_EQ(cnf.num_clauses(), 1u);
  EXPECT_EQ(cnf.num_vars(), 2u);
}

TEST(CnfTest, EvaluateAndCondition) {
  Cnf cnf;
  cnf.AddClauseDimacs({1, 2});
  cnf.AddClauseDimacs({-1, 3});
  EXPECT_TRUE(cnf.Evaluate({true, false, true}));
  EXPECT_FALSE(cnf.Evaluate({true, false, false}));

  Cnf cond = cnf.Condition(Pos(0));  // set var0 = true
  // First clause satisfied; second reduces to {3}.
  ASSERT_EQ(cond.num_clauses(), 1u);
  EXPECT_EQ(cond.clause(0), Clause{Pos(2)});

  Cnf cond2 = cnf.Condition(Neg(0));
  ASSERT_EQ(cond2.num_clauses(), 1u);
  EXPECT_EQ(cond2.clause(0), Clause{Pos(1)});
}

TEST(CnfTest, BruteForceCount) {
  Cnf cnf(2);
  cnf.AddClauseDimacs({1, 2});
  EXPECT_EQ(cnf.CountModelsBruteForce(), 3u);
  Cnf empty(3);
  EXPECT_EQ(empty.CountModelsBruteForce(), 8u);
}

TEST(CnfTest, DimacsRoundTrip) {
  Cnf cnf(4);
  cnf.AddClauseDimacs({1, -2});
  cnf.AddClauseDimacs({3, 4, -1});
  auto parsed = Cnf::ParseDimacs(cnf.ToDimacs());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().num_vars(), 4u);
  EXPECT_EQ(parsed.value().num_clauses(), 2u);
  EXPECT_EQ(parsed.value().clause(0), cnf.clause(0));
}

TEST(CnfTest, DimacsParseErrors) {
  EXPECT_FALSE(Cnf::ParseDimacs("1 2 0").ok());          // missing header
  EXPECT_FALSE(Cnf::ParseDimacs("p dnf 2 1\n1 0").ok()); // wrong type
  EXPECT_FALSE(Cnf::ParseDimacs("p cnf 2 1\n1 x 0").ok());
}

TEST(CnfTest, DimacsParsesCommentsAndMultilineClauses) {
  auto parsed = Cnf::ParseDimacs("c hi\np cnf 3 2\n1\n-2 0 2 3 0\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().num_clauses(), 2u);
}

TEST(CnfTest, DimacsParseErrorMessagesAndBounds) {
  // The typed refusals name the line and echo the offending text.
  const auto message = [](const std::string& text) {
    auto parsed = Cnf::ParseDimacs(text);
    EXPECT_FALSE(parsed.ok()) << text;
    return parsed.ok() ? std::string() : parsed.status().message();
  };
  EXPECT_EQ(message("c x\n\np dnf 2 1\n"),
            "line 3: bad DIMACS header: p dnf 2 1");
  EXPECT_EQ(message("p cnf 2\n"), "line 1: bad DIMACS header: p cnf 2");
  EXPECT_EQ(message("p cnf 268435457 1\n"),
            "line 1: bad variable count '268435457'");
  EXPECT_EQ(message("p cnf -2 1\n"), "line 1: bad variable count '-2'");
  EXPECT_EQ(message("p cnf 3 1\n1\r\n2 x3 0\n"),
            "line 3: bad DIMACS token: x3");
  EXPECT_EQ(message("p cnf 3 1\n268435457 0\n"),
            "line 2: bad DIMACS token: 268435457");
  EXPECT_EQ(message("1 2 0\n"), "missing DIMACS header");
  // Bounds are inclusive, CRLF and tabs are whitespace, a clause may open
  // before the header, and a trailing clause without its 0 still lands.
  auto parsed = Cnf::ParseDimacs("-268435456 \t1 0\r\np cnf 5 2\r\n2 -3");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->num_vars(), 268435456u);
  ASSERT_EQ(parsed->num_clauses(), 2u);
  EXPECT_EQ(parsed->clause(1), (Clause{Pos(1), Neg(2)}));
  // A lone 0 is the empty clause; the declared count only raises num_vars.
  parsed = Cnf::ParseDimacs("p cnf 7 1\n0\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_vars(), 7u);
  EXPECT_TRUE(parsed->HasEmptyClause());
  // Space, \t, \v, \f and \r separate tokens anywhere on a line, a
  // comment or header may follow leading whitespace, and a header echoes
  // its whole line; any other byte, 0xA0 included, is part of a token.
  parsed = Cnf::ParseDimacs(
      " \v c note\n\f\tp\vcnf 4\f2\r\n1\v-2\f0 \t3 4\r0\n\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->num_vars(), 4u);
  ASSERT_EQ(parsed->num_clauses(), 2u);
  EXPECT_EQ(parsed->clause(0), (Clause{Pos(0), Neg(1)}));
  EXPECT_EQ(parsed->clause(1), (Clause{Pos(2), Pos(3)}));
  EXPECT_EQ(message("p cnf 2 1\n1\xa0 0\n"), "line 2: bad DIMACS token: 1\xa0");
  EXPECT_EQ(message("\n \tp\vdnf 2 1 \r\n"),
            "line 2: bad DIMACS header:  \tp\vdnf 2 1 \r");
}

TEST(SimplifyTest, UnitPropagationToFixpoint) {
  Cnf cnf(4);
  cnf.AddClauseDimacs({1});
  cnf.AddClauseDimacs({-1, 2});
  cnf.AddClauseDimacs({-2, 3});
  cnf.AddClauseDimacs({3, 4});
  PreprocessResult r = Preprocess(cnf);
  EXPECT_FALSE(r.unsat);
  EXPECT_EQ(r.units.size(), 3u);  // x1, x2, x3 all forced
  EXPECT_EQ(r.simplified.num_clauses(), 0u);
}

TEST(SimplifyTest, DetectsConflict) {
  Cnf cnf(2);
  cnf.AddClauseDimacs({1});
  cnf.AddClauseDimacs({-1, 2});
  cnf.AddClauseDimacs({-2});
  PreprocessResult r = Preprocess(cnf);
  EXPECT_TRUE(r.unsat);
  EXPECT_EQ(Reassemble(r).CountModelsBruteForce(), 0u);
}

TEST(SimplifyTest, SubsumptionDropsSupersets) {
  Cnf cnf(4);
  cnf.AddClauseDimacs({1, 2});
  cnf.AddClauseDimacs({1, 2, 3});   // subsumed by {1,2}
  cnf.AddClauseDimacs({1, 2, -4});  // subsumed by {1,2}
  cnf.AddClauseDimacs({3, 4});
  cnf.AddClauseDimacs({3, 4});      // duplicate
  PreprocessResult r = Preprocess(cnf);
  EXPECT_EQ(r.simplified.num_clauses(), 2u);
}

TEST(SimplifyTest, PreservesModelCount) {
  // Equivalence check: count(original) == count(simplified ∧ units).
  Cnf cnf(6);
  cnf.AddClauseDimacs({1});
  cnf.AddClauseDimacs({-1, 2, 3});
  cnf.AddClauseDimacs({2, 3, 4});     // subsumed once unit 1 hits? no: kept
  cnf.AddClauseDimacs({-2, 5});
  cnf.AddClauseDimacs({4, -5, 6});
  cnf.AddClauseDimacs({4, -5, 6, 2});  // subsumed
  const PreprocessResult r = Preprocess(cnf);
  EXPECT_EQ(Reassemble(r).CountModelsBruteForce(), cnf.CountModelsBruteForce());
}

TEST(SimplifyTest, PureLiterals) {
  Cnf cnf(3);
  cnf.AddClauseDimacs({1, 2});
  cnf.AddClauseDimacs({1, -2});
  cnf.AddClauseDimacs({-3, 2});
  const std::vector<Lit> pure = PureLiterals(cnf);
  // x1 appears only positively, x3 only negatively; x2 both ways.
  ASSERT_EQ(pure.size(), 2u);
  EXPECT_EQ(pure[0], Pos(0));
  EXPECT_EQ(pure[1], Neg(2));
}

TEST(FormulaTest, ConstantsAndSimplification) {
  FormulaStore fs;
  EXPECT_EQ(fs.And(fs.True(), fs.False()), fs.False());
  EXPECT_EQ(fs.Or(fs.True(), fs.False()), fs.True());
  FormulaId x = fs.VarNode(0);
  EXPECT_EQ(fs.And(x, fs.True()), x);
  EXPECT_EQ(fs.Or(x, fs.False()), x);
  EXPECT_EQ(fs.Not(fs.Not(x)), x);
  EXPECT_EQ(fs.And(x, x), x);
}

TEST(FormulaTest, HashConsingShares) {
  FormulaStore fs;
  FormulaId a = fs.VarNode(0), b = fs.VarNode(1);
  EXPECT_EQ(fs.And(a, b), fs.And(b, a));  // commutative normalization
  EXPECT_EQ(fs.Or(a, b), fs.Or(b, a));
}

TEST(FormulaTest, Evaluate) {
  FormulaStore fs;
  FormulaId a = fs.VarNode(0), b = fs.VarNode(1), c = fs.VarNode(2);
  FormulaId f = fs.And(fs.Or(a, fs.Not(c)), fs.And(fs.Or(b, c), fs.Or(a, b)));
  // f = (A + ~C)(B + C)(A + B), the paper's Figure 26 function.
  EXPECT_TRUE(fs.Evaluate(f, {true, true, false}));
  EXPECT_FALSE(fs.Evaluate(f, {false, false, true}));
  EXPECT_TRUE(fs.Evaluate(f, {true, true, true}));
  EXPECT_TRUE(fs.Evaluate(f, {true, false, true}));   // (1)(1)(1)
  EXPECT_FALSE(fs.Evaluate(f, {false, true, true}));  // A+~C fails
}

TEST(FormulaTest, Fig26TruthTable) {
  FormulaStore fs;
  FormulaId a = fs.VarNode(0), b = fs.VarNode(1), c = fs.VarNode(2);
  FormulaId f = fs.And({fs.Or(a, fs.Not(c)), fs.Or(b, c), fs.Or(a, b)});
  int count = 0;
  for (int bits = 0; bits < 8; ++bits) {
    Assignment asg = {(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
    bool expect = (asg[0] || !asg[2]) && (asg[1] || asg[2]) && (asg[0] || asg[1]);
    EXPECT_EQ(fs.Evaluate(f, asg), expect);
    count += expect;
  }
  EXPECT_EQ(count, 4);  // AB, ABC, A~BC... the function has 4 models
}

TEST(FormulaTest, TseitinPreservesModelCountOverOriginalVars) {
  FormulaStore fs;
  FormulaId a = fs.VarNode(0), b = fs.VarNode(1), c = fs.VarNode(2);
  FormulaId f = fs.Or(fs.And(a, b), fs.Xor(b, c));
  // Count models of f directly.
  int direct = 0;
  for (int bits = 0; bits < 8; ++bits) {
    Assignment asg = {(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
    direct += fs.Evaluate(f, asg);
  }
  Cnf cnf = fs.ToCnfTseitin(f);
  EXPECT_EQ(cnf.CountModelsBruteForce(), static_cast<uint64_t>(direct));
}

TEST(FormulaTest, CardinalityBuilders) {
  FormulaStore fs;
  std::vector<FormulaId> xs = {fs.VarNode(0), fs.VarNode(1), fs.VarNode(2)};
  FormulaId exactly_one = fs.ExactlyOne(xs);
  FormulaId majority = fs.Majority(xs);  // >= 2 of 3
  int eo = 0, maj = 0;
  for (int bits = 0; bits < 8; ++bits) {
    Assignment asg = {(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
    int ones = asg[0] + asg[1] + asg[2];
    EXPECT_EQ(fs.Evaluate(exactly_one, asg), ones == 1);
    EXPECT_EQ(fs.Evaluate(majority, asg), ones >= 2);
    eo += ones == 1;
    maj += ones >= 2;
  }
  EXPECT_EQ(eo, 3);
  EXPECT_EQ(maj, 4);
}

TEST(FormulaTest, AtLeastKEdgeCases) {
  FormulaStore fs;
  std::vector<FormulaId> xs = {fs.VarNode(0), fs.VarNode(1)};
  EXPECT_EQ(fs.AtLeastK(xs, 0), fs.True());
  EXPECT_EQ(fs.AtLeastK(xs, 3), fs.False());
  FormulaId both = fs.AtLeastK(xs, 2);
  EXPECT_TRUE(fs.Evaluate(both, {true, true}));
  EXPECT_FALSE(fs.Evaluate(both, {true, false}));
}

}  // namespace
}  // namespace tbc
