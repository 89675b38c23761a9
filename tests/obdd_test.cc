#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

#include "analysis/nnf_analyzer.h"
#include "base/random.h"
#include "vtree/vtree.h"
#include "nnf/queries.h"
#include "nnf_oracle.h"
#include "obdd/obdd.h"
#include "obdd/ordering.h"
#include "obdd/threshold.h"
#include "small_stack.h"

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

TEST(ObddTest, TerminalsAndLiterals) {
  ObddManager m(Vtree::IdentityOrder(2));
  EXPECT_EQ(m.And(m.True(), m.False()), m.False());
  EXPECT_EQ(m.Or(m.True(), m.False()), m.True());
  ObddId x = m.LiteralNode(Pos(0));
  EXPECT_TRUE(m.Evaluate(x, {true, false}));
  EXPECT_FALSE(m.Evaluate(x, {false, false}));
  EXPECT_EQ(m.Not(m.Not(x)), x);
  EXPECT_EQ(m.LiteralNode(Neg(0)), m.Not(x));
}

TEST(ObddTest, CanonicityViaHashConsing) {
  ObddManager m(Vtree::IdentityOrder(3));
  // (x0 & x1) | (x0 & x2) == x0 & (x1 | x2): same node.
  ObddId a = m.Or(m.And(m.LiteralNode(Pos(0)), m.LiteralNode(Pos(1))),
                  m.And(m.LiteralNode(Pos(0)), m.LiteralNode(Pos(2))));
  ObddId b = m.And(m.LiteralNode(Pos(0)),
                   m.Or(m.LiteralNode(Pos(1)), m.LiteralNode(Pos(2))));
  EXPECT_EQ(a, b);
  // Reduction: if v then g else g == g.
  EXPECT_EQ(m.MakeNode(0, a, a), a);
}

TEST(ObddTest, XorAndIff) {
  ObddManager m(Vtree::IdentityOrder(2));
  ObddId x = m.LiteralNode(Pos(0)), y = m.LiteralNode(Pos(1));
  ObddId xr = m.Xor(x, y);
  EXPECT_TRUE(m.Evaluate(xr, {true, false}));
  EXPECT_FALSE(m.Evaluate(xr, {true, true}));
  EXPECT_EQ(m.Iff(x, y), m.Not(xr));
  EXPECT_EQ(m.Xor(x, x), m.False());
}

TEST(ObddTest, IteAgainstTruthTable) {
  ObddManager m(Vtree::IdentityOrder(3));
  ObddId f = m.LiteralNode(Pos(0)), g = m.LiteralNode(Pos(1)),
         h = m.LiteralNode(Pos(2));
  ObddId ite = m.Ite(f, g, h);
  for (int bits = 0; bits < 8; ++bits) {
    Assignment a = {(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
    EXPECT_EQ(m.Evaluate(ite, a), a[0] ? a[1] : a[2]);
  }
}

TEST(ObddTest, RestrictAndQuantify) {
  ObddManager m(Vtree::IdentityOrder(3));
  ObddId f = m.And(m.LiteralNode(Pos(0)), m.Or(m.LiteralNode(Pos(1)),
                                               m.LiteralNode(Neg(2))));
  ObddId f1 = m.Restrict(f, 0, true);
  for (int bits = 0; bits < 8; ++bits) {
    Assignment a = {true, (bits & 2) != 0, (bits & 4) != 0};
    EXPECT_EQ(m.Evaluate(f1, a), m.Evaluate(f, a));
  }
  EXPECT_EQ(m.Restrict(f, 0, false), m.False());
  // Exists x0: drops the conjunct.
  ObddId ex = m.Exists(f, 0);
  EXPECT_EQ(ex, m.Or(m.LiteralNode(Pos(1)), m.LiteralNode(Neg(2))));
  EXPECT_EQ(m.Forall(f, 0), m.False());
}

TEST(ObddTest, Compose) {
  ObddManager m(Vtree::IdentityOrder(3));
  // f = x0 <-> x1; substitute x1 := x2. Result: x0 <-> x2.
  ObddId f = m.Iff(m.LiteralNode(Pos(0)), m.LiteralNode(Pos(1)));
  ObddId composed = m.Compose(f, 1, m.LiteralNode(Pos(2)));
  EXPECT_EQ(composed, m.Iff(m.LiteralNode(Pos(0)), m.LiteralNode(Pos(2))));
}

TEST(ObddTest, ModelCountWithLevelGaps) {
  ObddManager m(Vtree::IdentityOrder(4));
  // f = x1 (vars x0, x2, x3 free): 8 models.
  EXPECT_EQ(m.ModelCount(m.LiteralNode(Pos(1))), BigUint(8));
  EXPECT_EQ(m.ModelCount(m.True()), BigUint(16));
  EXPECT_EQ(m.ModelCount(m.False()), BigUint(0));
  // x1 & ~x3: 4 models.
  EXPECT_EQ(m.ModelCount(m.And(m.LiteralNode(Pos(1)), m.LiteralNode(Neg(3)))),
            BigUint(4));
}

TEST(ObddTest, CompileCnfCountsMatchBruteForce) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    Cnf cnf = RandomCnf(10, 25, 3, seed + 40);
    ObddManager m(Vtree::IdentityOrder(10));
    ObddId f = m.CompileCnf(cnf);
    EXPECT_EQ(m.ModelCount(f).ToU64(), cnf.CountModelsBruteForce())
        << "seed " << seed;
  }
}

TEST(ObddTest, CompileFormulaMatchesEvaluate) {
  FormulaStore fs;
  FormulaId a = fs.VarNode(0), b = fs.VarNode(1), c = fs.VarNode(2);
  FormulaId f = fs.Xor(fs.And(a, b), fs.Or(fs.Not(a), c));
  ObddManager m(Vtree::IdentityOrder(3));
  ObddId g = m.CompileFormula(fs, f);
  for (int bits = 0; bits < 8; ++bits) {
    Assignment asg = {(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
    EXPECT_EQ(m.Evaluate(g, asg), fs.Evaluate(f, asg));
  }
}

TEST(ObddTest, WmcMatchesBruteForce) {
  Cnf cnf = RandomCnf(8, 16, 3, 99);
  ObddManager m(Vtree::IdentityOrder(8));
  ObddId f = m.CompileCnf(cnf);
  WeightMap w(8);
  Rng rng(5);
  for (Var v = 0; v < 8; ++v) {
    double p = rng.Uniform();
    w.Set(Pos(v), p);
    w.Set(Neg(v), 1.0 - p);
  }
  double brute = 0.0;
  for (int bits = 0; bits < 256; ++bits) {
    Assignment a(8);
    for (Var v = 0; v < 8; ++v) a[v] = (bits >> v) & 1;
    if (!cnf.Evaluate(a)) continue;
    double term = 1.0;
    for (Var v = 0; v < 8; ++v) term *= w[Lit(v, a[v])];
    brute += term;
  }
  EXPECT_NEAR(m.Wmc(f, w), brute, 1e-12);
}

TEST(ObddTest, WmcWithZeroWeights) {
  ObddManager m(Vtree::IdentityOrder(2));
  ObddId f = m.Or(m.LiteralNode(Pos(0)), m.LiteralNode(Pos(1)));
  WeightMap w(2);
  w.Set(Pos(0), 0.0);
  w.Set(Neg(0), 0.0);  // (W+W) == 0 on a free-var path
  // Models: (0,1),(1,0),(1,1) -> weights 0*1 + 0*1 + 0*1 = 0.
  EXPECT_DOUBLE_EQ(m.Wmc(f, w), 0.0);
}

TEST(ObddTest, EnumerateModels) {
  ObddManager m(Vtree::IdentityOrder(3));
  ObddId f = m.Or(m.LiteralNode(Pos(0)), m.LiteralNode(Pos(2)));
  std::set<Assignment> models;
  m.EnumerateModels(f, [&](const Assignment& a) {
    EXPECT_TRUE(m.Evaluate(f, a));
    EXPECT_TRUE(models.insert(a).second);
  });
  EXPECT_EQ(models.size(), 6u);
}

TEST(ObddTest, ToNnfIsDecisionDnnfWithSameCounts) {
  Cnf cnf = RandomCnf(9, 20, 3, 123);
  ObddManager m(Vtree::IdentityOrder(9));
  ObddId f = m.CompileCnf(cnf);
  NnfManager nnf;
  NnfId root = m.ToNnf(f, nnf);
  const std::set<std::string> rules =
      nnf_oracle::RuleIds(nnf, root, NnfDialect::kDecisionDnnf);
  EXPECT_EQ(rules.count("dnnf.decomposable"), 0u);
  EXPECT_EQ(rules.count("nnf.decision"), 0u);
  EXPECT_EQ(ModelCount(nnf, root, 9).ToU64(), cnf.CountModelsBruteForce());
}

TEST(ObddTest, NonIdentityOrderChangesSizeNotSemantics) {
  // f = (x0&x3) | (x1&x4) | (x2&x5): interleaved order is exponentially
  // better than separated order (classic example).
  auto build = [](ObddManager& m) {
    ObddId f = m.False();
    for (Var i = 0; i < 3; ++i) {
      f = m.Or(f, m.And(m.LiteralNode(Pos(i)), m.LiteralNode(Pos(i + 3))));
    }
    return f;
  };
  ObddManager bad(std::vector<Var>{0, 1, 2, 3, 4, 5});
  ObddManager good(std::vector<Var>{0, 3, 1, 4, 2, 5});
  ObddId fb = build(bad), fg = build(good);
  EXPECT_EQ(bad.ModelCount(fb), good.ModelCount(fg));
  EXPECT_GT(bad.Size(fb), good.Size(fg));
}

TEST(ObddTest, IsMonotone) {
  ObddManager m(Vtree::IdentityOrder(2));
  ObddId f = m.Or(m.LiteralNode(Pos(0)), m.LiteralNode(Pos(1)));
  EXPECT_TRUE(m.IsMonotoneIn(f, 0));
  ObddId g = m.Xor(m.LiteralNode(Pos(0)), m.LiteralNode(Pos(1)));
  EXPECT_FALSE(m.IsMonotoneIn(g, 0));
  ObddId h = m.LiteralNode(Neg(0));
  EXPECT_FALSE(m.IsMonotoneIn(h, 0));
  EXPECT_TRUE(m.IsMonotoneIn(h, 1));  // vacuously
}

TEST(OrderingTest, ForceReducesSpanOnStructuredCnf) {
  // Chain structure scrambled by an adversarial initial numbering:
  // clause i couples vars (p(i), p(i+1)) under a permutation p.
  const size_t n = 20;
  std::vector<Var> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<Var>((i * 7) % n);
  Cnf cnf(n);
  for (size_t i = 0; i + 1 < n; ++i) {
    cnf.AddClause({Pos(perm[i]), Neg(perm[i + 1])});
  }
  const std::vector<Var> identity = Vtree::IdentityOrder(n);
  const std::vector<Var> force = ForceOrder(cnf, 30);
  EXPECT_LT(TotalSpan(cnf, force), TotalSpan(cnf, identity));
  // The order is a permutation.
  std::vector<Var> sorted = force;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, identity);
}

TEST(OrderingTest, ForceOrderShrinksObdd) {
  // Interleaved-pairs function: FORCE should bring pairs together.
  Cnf cnf(12);
  for (Var i = 0; i < 6; ++i) {
    cnf.AddClause({Pos(i), Pos(i + 6)});
    cnf.AddClause({Neg(i), Neg(i + 6)});
  }
  ObddManager bad(Vtree::IdentityOrder(12));
  const size_t bad_size = bad.Size(bad.CompileCnf(cnf));
  ObddManager good(ForceOrder(cnf, 20));
  const size_t good_size = good.Size(good.CompileCnf(cnf));
  EXPECT_LT(good_size, bad_size);
  EXPECT_EQ(good.ModelCount(good.CompileCnf(cnf)),
            bad.ModelCount(bad.CompileCnf(cnf)));
}

TEST(OrderingTest, HandlesUnconstrainedVariables) {
  Cnf cnf(5);
  cnf.AddClauseDimacs({1, 2});
  // Vars 2..4 appear in no clause; order must still be a permutation.
  std::vector<Var> order = ForceOrder(cnf, 5);
  std::sort(order.begin(), order.end());
  EXPECT_EQ(order, Vtree::IdentityOrder(5));
}

TEST(ThresholdTest, SimpleMajority) {
  ObddManager m(Vtree::IdentityOrder(3));
  // x0 + x1 + x2 >= 2.
  ObddId f = CompileThreshold(m, {0, 1, 2}, {1, 1, 1}, 2);
  for (int bits = 0; bits < 8; ++bits) {
    Assignment a = {(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
    EXPECT_EQ(m.Evaluate(f, a), a[0] + a[1] + a[2] >= 2);
  }
}

TEST(ThresholdTest, NegativeWeightsAndBias) {
  ObddManager m(Vtree::IdentityOrder(4));
  // 3x0 - 2x1 + x2 - x3 >= 1.
  ObddId f = CompileThreshold(m, {0, 1, 2, 3}, {3, -2, 1, -1}, 1);
  for (int bits = 0; bits < 16; ++bits) {
    Assignment a(4);
    for (Var v = 0; v < 4; ++v) a[v] = (bits >> v) & 1;
    int64_t sum = 3 * a[0] - 2 * a[1] + a[2] - a[3];
    EXPECT_EQ(m.Evaluate(f, a), sum >= 1);
  }
}

TEST(ThresholdTest, ConstantOutcomes) {
  ObddManager m(Vtree::IdentityOrder(2));
  EXPECT_EQ(CompileThreshold(m, {0, 1}, {1, 1}, 0), m.True());
  EXPECT_EQ(CompileThreshold(m, {0, 1}, {1, 1}, 3), m.False());
  EXPECT_EQ(CompileThreshold(m, {}, {}, 0), m.True());
  EXPECT_EQ(CompileThreshold(m, {}, {}, 1), m.False());
}

TEST(ThresholdTest, RandomAgainstBruteForce) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 6;
    std::vector<Var> vars = {0, 1, 2, 3, 4, 5};
    std::vector<int64_t> w(n);
    for (auto& x : w) x = rng.Range(-5, 5);
    int64_t t = rng.Range(-6, 6);
    ObddManager m(Vtree::IdentityOrder(n));
    ObddId f = CompileThreshold(m, vars, w, t);
    for (int bits = 0; bits < (1 << n); ++bits) {
      Assignment a(n);
      int64_t sum = 0;
      for (Var v = 0; v < n; ++v) {
        a[v] = (bits >> v) & 1;
        if (a[v]) sum += w[v];
      }
      ASSERT_EQ(m.Evaluate(f, a), sum >= t) << "trial " << trial;
    }
  }
}

TEST(ThresholdTest, RespectsUnsortedVarInput) {
  ObddManager m(Vtree::IdentityOrder(3));
  // Pass vars out of order; semantics must be unchanged.
  ObddId f = CompileThreshold(m, {2, 0, 1}, {1, 1, 1}, 2);
  ObddId g = CompileThreshold(m, {0, 1, 2}, {1, 1, 1}, 2);
  EXPECT_EQ(f, g);
}

// The weight map covers exactly the manager's variables, so a variable
// outside every root is weighed the same way in Wmc(⊤) and in the split
// Wmc(x) + Wmc(¬x).
TEST(ObddTest, WmcOfTrueSplitsOnAVariable) {
  ObddManager m(Vtree::IdentityOrder(3));
  WeightMap w(3);
  w.Set(Pos(0), 0.25);
  w.Set(Neg(0), 0.5);
  w.Set(Pos(2), 3.0);
  EXPECT_EQ(m.Wmc(m.True(), w), 6.0);
  EXPECT_EQ(m.Wmc(m.True(), w), m.Wmc(m.LiteralNode(Pos(0)), w) +
                                     m.Wmc(m.LiteralNode(Neg(0)), w));
}

TEST(ObddDeathTest, WmcRefusesAWeightMapOfAnotherSize) {
  ObddManager m(Vtree::IdentityOrder(3));
  const ObddId x = m.LiteralNode(Pos(0));
  EXPECT_DEATH(m.Wmc(x, WeightMap(2)), "weight map");
  EXPECT_DEATH(m.Wmc(x, WeightMap(4)), "weight map");
}

// A formula DAG 20,000 deep: compiling it and evaluating it are loops over
// its ascending reachable list, so both fit a 1 MB stack.
TEST(ObddTest, DeepFormulaCompilesOnOneMegabyteStack) {
  FormulaStore store;
  const FormulaId f = DeepFormulaChain(store, 10000);
  ObddManager m(Vtree::IdentityOrder(3));
  ObddId g = m.False();
  bool all_true = false;
  bool only_x0 = true;
  RunOnSmallStack([&] {
    g = m.CompileFormula(store, f);
    all_true = store.Evaluate(f, {true, true, true});
    only_x0 = store.Evaluate(f, {true, false, false});
  });
  EXPECT_EQ(m.Size(g), 4u);  // x1 ∨ x2
  EXPECT_EQ(m.ModelCount(g), BigUint(6));
  EXPECT_TRUE(all_true);
  EXPECT_FALSE(only_x0);
}

}  // namespace
}  // namespace tbc
