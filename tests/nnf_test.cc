#include <gtest/gtest.h>

#include <algorithm>

#include <cmath>
#include <map>
#include <set>
#include <string>

#include "analysis/nnf_analyzer.h"
#include "base/random.h"
#include "nnf/io.h"
#include "nnf/nnf.h"
#include "nnf/queries.h"
#include "nnf_oracle.h"
#include "sdd/compile.h"
#include "sdd/sdd.h"
#include "vtree/vtree.h"

namespace tbc {
namespace {

using nnf_oracle::EnumerateModelsDnnf;
using nnf_oracle::IsDeterministicExhaustive;
using nnf_oracle::RuleIds;
using Rules = std::set<std::string>;

// Builds the paper's running-example d-DNNF over variables A=0, K=1, L=2,
// P=3 (Figures 5-9 and 13): the compilation of the course constraint
// (P∨L) ∧ (A⇒P) ∧ (K⇒(A∨L)), which has 9 of 16 satisfying inputs.
// Structure follows Fig 9: a multiplexer with primes over {L,K} and subs
// over {P,A}, per the vtree ((L K) (P A)) of Fig 10(a).
NnfId BuildPaperCircuit(NnfManager& m) {
  const Var kA = 0, kK = 1, kL = 2, kP = 3;
  NnfId a = m.Literal(Pos(kA)), na = m.Literal(Neg(kA));
  NnfId k = m.Literal(Pos(kK)), nk = m.Literal(Neg(kK));
  NnfId l = m.Literal(Pos(kL)), nl = m.Literal(Neg(kL));
  NnfId p = m.Literal(Pos(kP)), np = m.Literal(Neg(kP));

  // Primes over {L, K}: L (smoothed), ¬L∧K, ¬L∧¬K.
  NnfId p1 = m.And(l, m.Or(k, nk));
  NnfId p2 = m.And(nl, k);
  NnfId p3 = m.And(nl, nk);
  // Subs over {P, A}: A⇒P (smoothed), A∧P, P (smoothed).
  NnfId s1 = m.Or(m.And(a, p), m.And(na, m.Or(p, np)));
  NnfId s2 = m.And(a, p);
  NnfId s3 = m.And(p, m.Or(a, na));

  return m.Or({m.And(p1, s1), m.And(p2, s2), m.And(p3, s3)});
}

// Brute-force count of (P∨L) ∧ (A⇒P) ∧ (K⇒(A∨L)).
int PaperCircuitBruteCount() {
  int count = 0;
  for (int bits = 0; bits < 16; ++bits) {
    bool a = bits & 1, k = bits & 2, l = bits & 4, p = bits & 8;
    bool f = (p || l) && (!a || p) && (!k || a || l);
    count += f;
  }
  return count;
}

TEST(NnfManagerTest, ConstantsAndSimplification) {
  NnfManager m;
  EXPECT_EQ(m.And(m.True(), m.False()), m.False());
  EXPECT_EQ(m.Or(m.True(), m.False()), m.True());
  NnfId x = m.Literal(Pos(0));
  EXPECT_EQ(m.And(x, m.True()), x);
  EXPECT_EQ(m.Or(x, m.False()), x);
  EXPECT_EQ(m.And(x, x), x);
  // Or(x, ~x) must NOT simplify: it is a smoothing gate.
  NnfId nx = m.Literal(Neg(0));
  NnfId triv = m.Or(x, nx);
  EXPECT_NE(triv, m.True());
  EXPECT_EQ(m.kind(triv), NnfManager::Kind::kOr);
}

TEST(NnfManagerTest, HashConsing) {
  NnfManager m;
  NnfId x = m.Literal(Pos(0)), y = m.Literal(Pos(1));
  EXPECT_EQ(m.And(x, y), m.And(y, x));
  EXPECT_EQ(m.Literal(Pos(0)), x);
}

TEST(NnfManagerTest, DecisionGate) {
  NnfManager m;
  NnfId hi = m.Literal(Pos(1)), lo = m.Literal(Neg(1));
  NnfId d = m.Decision(0, hi, lo);  // x0 ? x1 : ~x1  == (x0 <-> x1)... no:
  // d = (x0∧x1) ∨ (¬x0∧¬x1), which is x0 <-> x1.
  EXPECT_TRUE(m.Evaluate(d, {true, true}));
  EXPECT_TRUE(m.Evaluate(d, {false, false}));
  EXPECT_FALSE(m.Evaluate(d, {true, false}));
  EXPECT_EQ(m.Decision(0, hi, hi), hi);  // redundant decision collapses
}

TEST(NnfManagerTest, EvaluateAndCircuitSize) {
  NnfManager m;
  NnfId root = BuildPaperCircuit(m);
  EXPECT_GT(m.CircuitSize(root), 10u);
  // Spot-check a few inputs. Vars: A=0,K=1,L=2,P=3.
  EXPECT_TRUE(m.Evaluate(root, {false, false, true, false}));   // L only
  EXPECT_TRUE(m.Evaluate(root, {false, false, false, true}));   // P only
  EXPECT_FALSE(m.Evaluate(root, {false, false, false, false}));
  EXPECT_FALSE(m.Evaluate(root, {true, true, true, false}));    // A without P
}

TEST(NnfManagerTest, VarSets) {
  NnfManager m;
  NnfId root = BuildPaperCircuit(m);
  EXPECT_EQ(m.NumVarsBelow(root), 4u);
  NnfId x = m.Literal(Pos(2));
  EXPECT_EQ(m.NumVarsBelow(x), 1u);
}

TEST(NnfPropertiesTest, PaperCircuitIsDecomposableDeterministicSmooth) {
  NnfManager m;
  NnfId root = BuildPaperCircuit(m);
  EXPECT_EQ(RuleIds(m, root, NnfDialect::kSmoothDdnnf), Rules{});
  EXPECT_TRUE(IsDeterministicExhaustive(m, root, 4));
}

TEST(NnfPropertiesTest, DetectsNonDecomposable) {
  NnfManager m;
  NnfId bad = m.And(m.Literal(Pos(0)), m.Or(m.Literal(Neg(0)), m.Literal(Pos(1))));
  EXPECT_EQ(RuleIds(m, bad, NnfDialect::kDnnf), Rules{"dnnf.decomposable"});
}

TEST(NnfPropertiesTest, DetectsNonDeterministic) {
  NnfManager m;
  NnfId bad = m.Or(m.Literal(Pos(0)), m.Literal(Pos(1)));  // both high at 11
  EXPECT_FALSE(IsDeterministicExhaustive(m, bad, 2));
}

TEST(NnfPropertiesTest, SmoothingEnforcesSmoothness) {
  NnfManager m;
  // Non-smooth deterministic DNNF: x0 ∨ (¬x0 ∧ x1).
  NnfId f = m.Or(m.Literal(Pos(0)), m.And(m.Literal(Neg(0)), m.Literal(Pos(1))));
  EXPECT_EQ(RuleIds(m, f, NnfDialect::kSmoothDdnnf), Rules{"nnf.smooth"});
  NnfId s = nnf_oracle::Smooth(m, f, 2);
  EXPECT_EQ(RuleIds(m, s, NnfDialect::kSmoothDdnnf), Rules{});
  EXPECT_TRUE(IsDeterministicExhaustive(m, s, 2));
  // Equivalent: same models.
  for (int bits = 0; bits < 4; ++bits) {
    Assignment a = {(bits & 1) != 0, (bits & 2) != 0};
    EXPECT_EQ(m.Evaluate(f, a), m.Evaluate(s, a));
  }
}

TEST(NnfPropertiesTest, DecisionProperty) {
  NnfManager m;
  NnfId d = m.Decision(0, m.Literal(Pos(1)), m.Literal(Neg(1)));
  EXPECT_EQ(RuleIds(m, d, NnfDialect::kDecisionDnnf), Rules{});
  NnfId not_decision = m.Or(m.And(m.Literal(Pos(0)), m.Literal(Pos(1))),
                            m.And(m.Literal(Pos(2)), m.Literal(Pos(3))));
  // Its inputs also mention different variables: a smoothness warning.
  EXPECT_EQ(RuleIds(m, not_decision, NnfDialect::kDecisionDnnf),
            (Rules{"nnf.decision", "nnf.smooth"}));
}

TEST(NnfQueriesTest, SatDnnf) {
  NnfManager m;
  NnfId root = BuildPaperCircuit(m);
  EXPECT_TRUE(IsSatDnnf(m, root));
  EXPECT_FALSE(IsSatDnnf(m, m.False()));
  NnfId contradiction = m.And(m.Literal(Pos(0)), m.False());
  EXPECT_FALSE(IsSatDnnf(m, contradiction));
}

TEST(NnfQueriesTest, ModelCountMatchesPaperFigure8) {
  NnfManager m;
  NnfId root = BuildPaperCircuit(m);
  // Figure 8: the circuit has 9 satisfying inputs out of 16.
  EXPECT_EQ(ModelCount(m, root, 4), BigUint(9));
  EXPECT_EQ(PaperCircuitBruteCount(), 9);
}

TEST(NnfQueriesTest, ModelCountWithGapFactors) {
  NnfManager m;
  // Non-smooth: x0 ∨ (¬x0 ∧ x1) has 3 models over 2 vars, 6 over 3 vars.
  NnfId f = m.Or(m.Literal(Pos(0)), m.And(m.Literal(Neg(0)), m.Literal(Pos(1))));
  EXPECT_EQ(ModelCount(m, f, 2), BigUint(3));
  EXPECT_EQ(ModelCount(m, f, 3), BigUint(6));
}

TEST(NnfQueriesTest, WmcUniformEqualsCount) {
  NnfManager m;
  NnfId root = BuildPaperCircuit(m);
  WeightMap w(4);  // all ones
  EXPECT_DOUBLE_EQ(Wmc(m, root, w), 9.0);
  // Halving both literals of a variable halves the WMC.
  w.Set(Pos(0), 0.5);
  w.Set(Neg(0), 0.5);
  EXPECT_DOUBLE_EQ(Wmc(m, root, w), 4.5);
}

TEST(NnfQueriesTest, WmcMatchesBruteForce) {
  NnfManager m;
  NnfId root = BuildPaperCircuit(m);
  WeightMap w(4);
  w.Set(Pos(0), 0.3);
  w.Set(Neg(0), 0.7);
  w.Set(Pos(1), 2.0);
  w.Set(Neg(1), 0.25);
  w.Set(Pos(3), 0.9);
  w.Set(Neg(3), 0.1);
  double brute = 0.0;
  for (int bits = 0; bits < 16; ++bits) {
    Assignment asg = {(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0,
                      (bits & 8) != 0};
    if (!m.Evaluate(root, asg)) continue;
    double term = 1.0;
    for (Var v = 0; v < 4; ++v) term *= w[Lit(v, asg[v])];
    brute += term;
  }
  EXPECT_NEAR(Wmc(m, root, w), brute, 1e-12);
}

TEST(NnfQueriesTest, MarginalWmcMatchesConditionedWmc) {
  NnfManager m;
  NnfId root = BuildPaperCircuit(m);
  WeightMap w(4);
  w.Set(Pos(0), 0.6);
  w.Set(Neg(0), 0.4);
  w.Set(Pos(2), 1.5);
  std::vector<double> marg = MarginalWmc(m, root, w);
  for (Var v = 0; v < 4; ++v) {
    for (bool sign : {true, false}) {
      const Lit l(v, sign);
      NnfId cond = m.Condition(root, l);
      // WMC(Δ|l) * W(l) over remaining vars equals WMC(Δ ∧ l) except that
      // Wmc() multiplies the free var v by (W(v)+W(¬v)); compute directly.
      double brute = 0.0;
      for (int bits = 0; bits < 16; ++bits) {
        Assignment asg = {(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0,
                          (bits & 8) != 0};
        if (!Eval(l, asg) || !m.Evaluate(root, asg)) continue;
        double term = 1.0;
        for (Var u = 0; u < 4; ++u) term *= w[Lit(u, asg[u])];
        brute += term;
      }
      EXPECT_NEAR(marg[l.code()], brute, 1e-12)
          << "literal " << l.ToDimacs();
      (void)cond;
    }
  }
}

// Marginals run on the gap plan, never on a smoothed copy: a free
// variable's factor W(x)+W(¬x) is differentiated in place. Signed weights
// make that factor zero while W(x) is not, which is the only way the
// derivative's zero-factor branches reach an answer. The circuit
// (x0 ∧ x1 ∧ x2) ∨ (¬x0 ∧ x3) has gaps {x3} and {x1, x2}; x4 lies outside
// the root.
TEST(NnfQueriesTest, MarginalWmcDifferentiatesGapsWithZeroFactors) {
  NnfManager m;
  const NnfId root =
      m.Or(m.And({m.Literal(Pos(0)), m.Literal(Pos(1)), m.Literal(Pos(2))}),
           m.And(m.Literal(Neg(0)), m.Literal(Pos(3))));
  constexpr size_t kVars = 5;
  // Each case: the variables whose weights are (a, -a), so W(x)+W(¬x) = 0.
  const std::vector<std::vector<Var>> zero_factor_cases = {
      {}, {1}, {1, 2}, {3}, {4}, {3, 4}};
  for (const std::vector<Var>& zeros : zero_factor_cases) {
    WeightMap w(kVars);
    for (Var v = 0; v < kVars; ++v) {
      const double a = 0.3 + 0.25 * v;
      const bool zero = std::find(zeros.begin(), zeros.end(), v) != zeros.end();
      w.Set(Pos(v), a);
      w.Set(Neg(v), zero ? -a : 1.7 - a);
    }
    const std::vector<double> marg = MarginalWmc(m, root, w);
    ASSERT_EQ(marg.size(), 2 * kVars);
    for (uint32_t code = 0; code < 2 * kVars; ++code) {
      const Lit l = Lit::FromCode(code);
      double brute = 0.0;
      for (int bits = 0; bits < (1 << kVars); ++bits) {
        Assignment asg(kVars);
        for (Var v = 0; v < kVars; ++v) asg[v] = ((bits >> v) & 1) != 0;
        if (!Eval(l, asg) || !m.Evaluate(root, asg)) continue;
        double term = 1.0;
        for (Var v = 0; v < kVars; ++v) term *= w[Lit(v, asg[v])];
        brute += term;
      }
      EXPECT_NEAR(marg[code], brute, 1e-12)
          << "literal " << l.ToDimacs() << ", " << zeros.size()
          << " zero factors";
    }
  }
}

TEST(NnfQueriesTest, MinCardinality) {
  NnfManager m;
  NnfId root = BuildPaperCircuit(m);
  // Minimum positive literals among the 9 models: ¬L ∧ P ∧ ¬A ∧ (K free->0)
  // gives exactly one positive literal (P).
  EXPECT_EQ(MinCardinality(m, root), 1u);
  EXPECT_EQ(MinCardinality(m, m.False()), SIZE_MAX);
  EXPECT_EQ(MinCardinality(m, m.True()), 0u);
}

TEST(NnfQueriesTest, MaxWmcFindsMpe) {
  NnfManager m;
  NnfId root = BuildPaperCircuit(m);
  WeightMap w(4);
  w.Set(Pos(0), 0.9);
  w.Set(Neg(0), 0.1);
  w.Set(Pos(1), 0.2);
  w.Set(Neg(1), 0.8);
  w.Set(Pos(2), 0.7);
  w.Set(Neg(2), 0.3);
  w.Set(Pos(3), 0.6);
  w.Set(Neg(3), 0.4);
  MpeResult mpe = MaxWmc(m, root, w, 4);
  // Brute-force the maximum.
  double best = -1.0;
  for (int bits = 0; bits < 16; ++bits) {
    Assignment asg = {(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0,
                      (bits & 8) != 0};
    if (!m.Evaluate(root, asg)) continue;
    double term = 1.0;
    for (Var v = 0; v < 4; ++v) term *= w[Lit(v, asg[v])];
    best = std::max(best, term);
  }
  EXPECT_NEAR(mpe.weight, best, 1e-12);
  EXPECT_TRUE(m.Evaluate(root, mpe.assignment));
}

TEST(NnfQueriesTest, ConditionRestrictsModels) {
  NnfManager m;
  NnfId root = BuildPaperCircuit(m);
  NnfId cond = m.Condition(root, Pos(2));  // L = true
  // f|L = (A⇒P), K free: 6 models over {A,K,P}; L becomes free in the
  // conditioned circuit, so over 4 variables the count doubles to 12.
  EXPECT_EQ(ModelCount(m, cond, 4), BigUint(12));
  // f|¬L = (K⇒A) ∧ (A⇒P) ∧ P = (K∧A∧P) ∨ (¬K∧P): 3 over {A,K,P} -> 6.
  NnfId cond2 = m.Condition(root, Neg(2));
  EXPECT_EQ(ModelCount(m, cond2, 4), BigUint(6));
}

TEST(NnfQueriesTest, EnumerateModelsMatchesEvaluate) {
  NnfManager m;
  NnfId root = BuildPaperCircuit(m);
  std::set<Assignment> models;
  EnumerateModelsDnnf(m, root, 4, [&](const Assignment& a) {
    EXPECT_TRUE(m.Evaluate(root, a));
    models.insert(a);
  });
  EXPECT_EQ(models.size(), 9u);
}

TEST(NnfIoTest, RoundTrip) {
  NnfManager m;
  NnfId root = BuildPaperCircuit(m);
  std::string text = WriteNnf(m, root, 4);
  NnfManager m2;
  auto parsed = ReadNnf(m2, text);
  ASSERT_TRUE(parsed.ok());
  NnfId root2 = parsed.value();
  for (int bits = 0; bits < 16; ++bits) {
    Assignment a = {(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0,
                    (bits & 8) != 0};
    EXPECT_EQ(m.Evaluate(root, a), m2.Evaluate(root2, a));
  }
  EXPECT_EQ(ModelCount(m2, root2, 4), BigUint(9));
}

// Satellite pin for the serialization bug-sweep: WriteNnf -> ReadNnf is
// the identity on semantics AND on the declared variable count, including
// every degenerate shape (constants, lone literals, constant-absorbing
// gates) where the old parse/write asymmetry lost num_vars and accepted
// truncated bodies.
TEST(NnfIoTest, RoundTripPropertyOverDegenerateAndRandomCircuits) {
  constexpr size_t kVars = 4;
  Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    NnfManager m;
    // Pool starts with every literal plus both constants, then grows by
    // random gates over random earlier entries — degenerate inputs
    // (empty-ish gates, constant children, duplicate children) arise
    // naturally and the manager may canonicalize them arbitrarily.
    std::vector<NnfId> pool = {m.True(), m.False()};
    for (Var v = 0; v < kVars; ++v) {
      pool.push_back(m.Literal(Pos(v)));
      pool.push_back(m.Literal(Neg(v)));
    }
    const size_t gates = rng.Below(8);
    for (size_t g = 0; g < gates; ++g) {
      std::vector<NnfId> kids;
      const size_t arity = 2 + rng.Below(3);
      for (size_t i = 0; i < arity; ++i) {
        kids.push_back(pool[rng.Below(pool.size())]);
      }
      pool.push_back(rng.Below(2) == 0 ? m.And(std::move(kids))
                                         : m.Or(std::move(kids)));
    }
    const NnfId root = pool[rng.Below(pool.size())];

    const std::string text = WriteNnf(m, root, kVars);
    NnfManager m2;
    size_t num_vars = 0;
    auto parsed = ReadNnf(m2, text, &num_vars);
    ASSERT_TRUE(parsed.ok()) << parsed.status().message() << "\n" << text;
    EXPECT_EQ(num_vars, kVars);  // the header round-trips, not just the DAG
    for (int bits = 0; bits < (1 << kVars); ++bits) {
      Assignment a;
      for (size_t v = 0; v < kVars; ++v) a.push_back((bits >> v & 1) != 0);
      ASSERT_EQ(m.Evaluate(root, a), m2.Evaluate(*parsed, a))
          << "trial " << trial << " bits " << bits << "\n" << text;
    }
    // A second hop is byte-stable: parse of the write reproduces the write.
    EXPECT_EQ(WriteNnf(m2, *parsed, num_vars), text);
  }
}

TEST(NnfIoTest, HeaderCountMismatchesAreTypedErrorsNotWrongRoots) {
  NnfManager m;
  const std::string text = WriteNnf(m, BuildPaperCircuit(m), 4);
  // Drop the last body line: every remaining line is still well-formed, so
  // only the header's node/edge counts can expose the truncation.
  std::string truncated = text;
  truncated.pop_back();  // trailing newline
  truncated.erase(truncated.rfind('\n') + 1);
  NnfManager m2;
  auto r = ReadNnf(m2, truncated);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error_code(), StatusCode::kInvalidInput);

  NnfManager m3;
  EXPECT_FALSE(ReadNnf(m3, "nnf 1 0 1\nL 2\n").ok());  // var > declared
  NnfManager m4;
  EXPECT_FALSE(ReadNnf(m4, "nnf 3 2 1\nL 1\nL -1\nO x 2 0 1\n").ok());
  NnfManager m5;  // decision var beyond the declared count
  EXPECT_FALSE(ReadNnf(m5, "nnf 3 2 1\nL 1\nL -1\nO 9 2 0 1\n").ok());
}

TEST(NnfIoTest, ParseErrors) {
  NnfManager m;
  EXPECT_FALSE(ReadNnf(m, "").ok());
  EXPECT_FALSE(ReadNnf(m, "L 1\n").ok());                  // missing header
  EXPECT_FALSE(ReadNnf(m, "nnf 1 0 1\nA 2 0 1\n").ok());   // forward ref
  EXPECT_FALSE(ReadNnf(m, "nnf 1 0 1\nZ\n").ok());         // unknown line
}

TEST(NnfQueriesTest, UniformSamplingMatchesDistribution) {
  NnfManager m;
  NnfId root = BuildPaperCircuit(m);
  Rng rng(77);
  std::map<Assignment, int> counts;
  const int trials = 18000;
  for (int i = 0; i < trials; ++i) {
    Assignment x = SampleModelDnnf(m, root, 4, rng);
    EXPECT_TRUE(m.Evaluate(root, x));
    ++counts[x];
  }
  EXPECT_EQ(counts.size(), 9u);  // all models eventually drawn
  for (const auto& [x, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 1.0 / 9.0, 0.015);
  }
}

TEST(NnfQueriesTest, SamplingWithNonSmoothCircuit) {
  NnfManager m;
  // x0 ∨ (¬x0 ∧ x1): 3 models over 2 vars; x0 branch has a free x1.
  NnfId f = m.Or(m.Literal(Pos(0)), m.And(m.Literal(Neg(0)), m.Literal(Pos(1))));
  Rng rng(3);
  std::map<Assignment, int> counts;
  for (int i = 0; i < 9000; ++i) ++counts[SampleModelDnnf(m, f, 2, rng)];
  EXPECT_EQ(counts.size(), 3u);
  for (const auto& [x, c] : counts) {
    EXPECT_NEAR(c / 9000.0, 1.0 / 3.0, 0.02);
  }

  // Three inputs with gaps of 2, 1 and 0 variables, so every branch weight
  // depends on its own gap whatever the child order:
  // (x0 ∧ x1) ∨ (¬x0 ∧ ¬x1 ∧ x2) ∨ (¬x0 ∧ x1 ∧ x2 ∧ x3) has 4 + 2 + 1 = 7
  // models.
  const NnfId n0 = m.Literal(Neg(0));
  const NnfId g = m.Or({m.And(m.Literal(Pos(0)), m.Literal(Pos(1))),
                        m.And({n0, m.Literal(Neg(1)), m.Literal(Pos(2))}),
                        m.And({n0, m.Literal(Pos(1)), m.Literal(Pos(2)),
                               m.Literal(Pos(3))})});
  counts.clear();
  for (int i = 0; i < 14000; ++i) ++counts[SampleModelDnnf(m, g, 4, rng)];
  EXPECT_EQ(counts.size(), 7u);
  for (const auto& [x, c] : counts) {
    EXPECT_NEAR(c / 14000.0, 1.0 / 7.0, 0.02);
  }
}

TEST(NnfQueriesTest, ClausalEntailment) {
  NnfManager m;
  NnfId root = BuildPaperCircuit(m);  // (P∨L) ∧ (A⇒P) ∧ (K⇒(A∨L))
  // Every original clause is entailed.
  EXPECT_TRUE(EntailsClause(m, root, {Pos(3), Pos(2)}));          // P ∨ L
  EXPECT_TRUE(EntailsClause(m, root, {Neg(0), Pos(3)}));          // A ⇒ P
  EXPECT_TRUE(EntailsClause(m, root, {Neg(1), Pos(0), Pos(2)}));  // K⇒(A∨L)
  // Weaker clauses too; unrelated ones are not.
  EXPECT_TRUE(EntailsClause(m, root, {Pos(3), Pos(2), Pos(1)}));
  EXPECT_FALSE(EntailsClause(m, root, {Pos(0)}));
  EXPECT_FALSE(EntailsClause(m, root, {Neg(3)}));
}

// A clause holding x and ¬x is valid, so every circuit entails it, whether
// it mentions x or not; and answering any number of distinct clauses
// builds nothing.
TEST(NnfQueriesTest, ClausalEntailmentBuildsNothing) {
  NnfManager m;
  EXPECT_TRUE(EntailsClause(m, m.And({m.Literal(Pos(0)), m.Literal(Pos(1))}),
                            {Pos(2), Neg(2)}));
  EXPECT_TRUE(EntailsClause(m, m.Or({m.Literal(Pos(0)), m.Literal(Pos(1))}),
                            {Pos(1), Neg(1)}));
  const NnfId root = BuildPaperCircuit(m);
  const size_t nodes = m.num_nodes();
  size_t asked = 0;
  for (uint32_t a = 0; a < 8; ++a) {
    for (uint32_t b = a; b < 8 && asked < 30; ++b) {
      if (b != a && (a >> 1) == (b >> 1)) continue;  // x ∨ ¬x: above
      Clause clause = {Lit::FromCode(a)};
      if (b != a) clause.push_back(Lit::FromCode(b));
      bool entailed = true;
      for (int bits = 0; bits < 16; ++bits) {
        Assignment x(4);
        for (Var v = 0; v < 4; ++v) x[v] = (bits >> v) & 1;
        bool satisfied = false;
        for (Lit l : clause) satisfied |= x[l.var()] == l.positive();
        if (m.Evaluate(root, x) && !satisfied) entailed = false;
      }
      EXPECT_EQ(EntailsClause(m, root, clause), entailed) << a << " " << b;
      ++asked;
    }
  }
  EXPECT_EQ(asked, 30u);
  EXPECT_EQ(m.num_nodes(), nodes);
}

TEST(NnfQueriesTest, ForgetMatchesExistentialQuantification) {
  NnfManager m;
  NnfId root = BuildPaperCircuit(m);
  // ∃A. f : an assignment over {K,L,P} is a model iff some extension is.
  NnfId forgotten = Forget(m, root, {0});
  for (int bits = 0; bits < 8; ++bits) {
    Assignment klp = {false, (bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
    bool expect = false;
    for (bool a : {false, true}) {
      Assignment full = klp;
      full[0] = a;
      expect |= m.Evaluate(root, full);
    }
    ASSERT_EQ(m.Evaluate(forgotten, klp), expect) << bits;
  }
  // Forgetting everything yields a satisfiable circuit equivalent to ⊤.
  NnfId all_forgotten = Forget(m, root, {0, 1, 2, 3});
  EXPECT_TRUE(IsSatDnnf(m, all_forgotten));
  EXPECT_TRUE(m.Evaluate(all_forgotten, {false, false, false, false}));
}

// MaxSumWmc on a raw SDD export over a constrained vtree, never smoothed:
// its or-edges skip max and sum variables alike. The value matches brute
// force max_y Σ_z W(y, z) and MaxSumWmc on the Smooth()ed copy, and the
// returned y reaches it: WMC with the contradicted max literals zeroed.
// The max variables are the last ones; every fourth instance keeps the
// last variable out of every clause, so it lies outside the root, and
// every third zeroes a weight. The tallies check that each case occurs.
TEST(NnfQueriesTest, MaxSumWithoutSmoothingMatchesBruteForce) {
  int max_in_gap = 0, sum_in_max_gate_gap = 0, max_outside = 0, zeroed = 0;
  for (uint64_t seed = 0; seed < 48; ++seed) {
    Rng rng(seed + 900);
    const size_t n = 6 + seed % 9;  // 6..14 variables
    const size_t num_y = 1 + rng.Below(n / 2);
    const size_t used = seed % 4 == 0 ? n - 1 : n;
    Cnf cnf(n);
    for (size_t i = 0; i < 2 * used; ++i) {
      std::set<Var> vars;
      while (vars.size() < 3) vars.insert(static_cast<Var>(rng.Below(used)));
      Clause c;
      for (Var v : vars) c.push_back(Lit(v, rng.Flip(0.5)));
      cnf.AddClause(c);
    }
    std::vector<Var> y, z;
    std::vector<uint8_t> is_y(n, 0);
    for (Var v = 0; v < n; ++v) {
      if (v >= n - num_y) {
        y.push_back(v);
        is_y[v] = 1;
      } else {
        z.push_back(v);
      }
    }
    WeightMap w(n);
    for (Var v = 0; v < n; ++v) {
      w.Set(Pos(v), 0.05 + 0.9 * rng.Uniform());
      w.Set(Neg(v), 0.05 + 0.9 * rng.Uniform());
    }
    if (seed % 3 == 0) {
      w.Set(Lit(static_cast<Var>(rng.Below(n)), rng.Flip(0.5)), 0.0);
      ++zeroed;
    }

    SddManager sdd(Vtree::Constrained(y, z));
    NnfManager m;
    const NnfId root = sdd.ToNnf(CompileCnf(sdd, cnf), m);

    // Tally the gap cases before Smooth() adds nodes.
    auto mentions = [&](NnfId node, Var v) {
      const Span<const uint64_t> set = m.VarSet(node);
      return v / 64 < set.size() && ((set[v / 64] >> (v % 64)) & 1) != 0;
    };
    for (Var v : y) max_outside += mentions(root, v) ? 0 : 1;
    for (NnfId g : m.TopologicalOrder(root)) {
      if (m.kind(g) != NnfManager::Kind::kOr) continue;
      bool max_gate = false;
      for (Var v : y) max_gate = max_gate || mentions(g, v);
      for (NnfId c : m.children(g)) {
        for (Var v = 0; v < n; ++v) {
          if (!mentions(g, v) || mentions(c, v)) continue;
          if (is_y[v]) {
            ++max_in_gap;
          } else if (max_gate) {
            ++sum_in_max_gate_gap;
          }
        }
      }
    }

    double brute = 0.0;
    for (uint64_t ybits = 0; ybits < (1ull << y.size()); ++ybits) {
      double sum = 0.0;
      for (uint64_t zbits = 0; zbits < (1ull << z.size()); ++zbits) {
        Assignment a(n);
        for (size_t k = 0; k < y.size(); ++k) a[y[k]] = (ybits >> k) & 1;
        for (size_t k = 0; k < z.size(); ++k) a[z[k]] = (zbits >> k) & 1;
        if (!cnf.Evaluate(a)) continue;
        double p = 1.0;
        for (Var v = 0; v < n; ++v) p *= w[Lit(v, a[v])];
        sum += p;
      }
      brute = std::max(brute, sum);
    }

    const MaxSumResult r = MaxSumWmc(m, root, w, y);
    EXPECT_NEAR(r.value, brute, 1e-12 * brute) << "seed " << seed;
    const NnfId smooth = nnf_oracle::Smooth(m, root, n);
    EXPECT_NEAR(r.value, MaxSumWmc(m, smooth, w, y).value, 1e-12 * brute)
        << "seed " << seed;
    ASSERT_EQ(r.max_assignment.size(), y.size()) << "seed " << seed;
    WeightMap chosen = w;
    for (Lit l : r.max_assignment) chosen.Set(~l, 0.0);
    EXPECT_NEAR(Wmc(m, root, chosen), r.value, 1e-12 * brute) << "seed " << seed;
  }
  EXPECT_GT(max_in_gap, 0);
  EXPECT_GT(sum_in_max_gate_gap, 0);
  EXPECT_GT(max_outside, 0);
  EXPECT_GT(zeroed, 0);
}

// A variable the manager has never numbered is mentioned nowhere, so
// forgetting it returns the circuit itself.
TEST(NnfQueriesTest, ForgetIgnoresVariablesOutsideTheManager) {
  NnfManager m;
  const NnfId root = BuildPaperCircuit(m);
  EXPECT_EQ(Forget(m, root, {static_cast<Var>(m.num_vars())}), root);
  EXPECT_EQ(Forget(m, root, {static_cast<Var>(m.num_vars() + 128)}), root);
}

// MaxSumWmc reads each max variable's weights and marks it in an array
// sized by weights.num_vars(), so a max variable at or above that count is
// refused instead of indexed past the weights.
TEST(NnfQueriesDeathTest, MaxSumRejectsVariablesOutsideTheManager) {
  NnfManager m;
  const NnfId root = BuildPaperCircuit(m);
  const Var outside = static_cast<Var>(m.num_vars() + 128);
  const WeightMap w(m.num_vars());
  EXPECT_DEATH(MaxSumWmc(m, root, w, {outside}),
               "MaxSumWmc: variable not below");
}

TEST(NnfIoTest, ConstantsRoundTrip) {
  NnfManager m;
  std::string t = WriteNnf(m, m.True(), 0);
  NnfManager m2;
  auto r = ReadNnf(m2, t);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), m2.True());
}

}  // namespace
}  // namespace tbc
