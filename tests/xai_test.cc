#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "base/random.h"
#include "small_stack.h"
#include "vtree/vtree.h"
#include "xai/bnn.h"
#include "xai/compile.h"
#include "xai/decision_tree.h"
#include "xai/explain.h"
#include "xai/naive_bayes.h"
#include "xai/robustness.h"

namespace tbc {
namespace {

// Random boolean function over n vars as a classifier.
BooleanClassifier RandomFunction(size_t n, uint64_t seed, double density = 0.5) {
  auto table = std::make_shared<std::vector<bool>>(1u << n);
  Rng rng(seed);
  for (size_t i = 0; i < table->size(); ++i) (*table)[i] = rng.Flip(density);
  return {n, [table, n](const Assignment& x) {
            size_t idx = 0;
            for (size_t v = 0; v < n; ++v) idx |= static_cast<size_t>(x[v]) << v;
            return (*table)[idx];
          }};
}

Term MakeTerm(std::vector<int> dimacs) {
  Term t;
  for (int d : dimacs) t.push_back(Lit::FromDimacs(d));
  std::sort(t.begin(), t.end(), [](Lit a, Lit b) { return a.var() < b.var(); });
  return t;
}

TEST(CompileTest, BruteForceMatchesFunction) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    BooleanClassifier c = RandomFunction(6, seed);
    ObddManager mgr(Vtree::IdentityOrder(6));
    ObddId f = CompileBruteForce(c, mgr);
    for (int bits = 0; bits < 64; ++bits) {
      Assignment x(6);
      for (Var v = 0; v < 6; ++v) x[v] = (bits >> v) & 1;
      ASSERT_EQ(mgr.Evaluate(f, x), c.classify(x));
    }
  }
}

TEST(NaiveBayesTest, PosteriorBehaves) {
  // Paper Fig 25's pregnancy classifier shape: three tests, all strongly
  // indicative.
  NaiveBayesClassifier nb(0.3, {0.95, 0.9, 0.99}, {0.1, 0.2, 0.05}, 0.5);
  EXPECT_GT(nb.Posterior({true, true, true}), 0.95);
  EXPECT_LT(nb.Posterior({false, false, false}), 0.05);
  EXPECT_TRUE(nb.Classify({true, true, true}));
  EXPECT_FALSE(nb.Classify({false, false, false}));
}

TEST(NaiveBayesTest, OddCompilationMatchesClassifierExactly) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    NaiveBayesClassifier nb = NaiveBayesClassifier::Random(8, 0.5, seed);
    ObddManager mgr(Vtree::IdentityOrder(8));
    ObddId odd = nb.CompileToOdd(mgr);
    for (int bits = 0; bits < 256; ++bits) {
      Assignment x(8);
      for (Var v = 0; v < 8; ++v) x[v] = (bits >> v) & 1;
      ASSERT_EQ(mgr.Evaluate(odd, x), nb.Classify(x)) << "seed " << seed;
    }
  }
}

TEST(NaiveBayesTest, OddIsSmallerThanTruthTable) {
  NaiveBayesClassifier nb = NaiveBayesClassifier::Random(12, 0.5, 7);
  ObddManager mgr(Vtree::IdentityOrder(12));
  ObddId odd = nb.CompileToOdd(mgr);
  EXPECT_LT(mgr.Size(odd), 1u << 12);
}

TEST(NaiveBayesTest, FitRecoversSeparableConcept) {
  // Label = feature 0 with noise on other features.
  Rng rng(5);
  std::vector<Assignment> data;
  std::vector<bool> labels;
  for (int i = 0; i < 500; ++i) {
    Assignment x(4);
    x[0] = rng.Flip(0.5);
    for (Var v = 1; v < 4; ++v) x[v] = rng.Flip(0.5);
    data.push_back(x);
    labels.push_back(x[0]);
  }
  auto nb = NaiveBayesClassifier::Fit(data, labels, 0.5, 1.0);
  size_t correct = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    correct += nb.Classify(data[i]) == labels[i];
  }
  EXPECT_EQ(correct, data.size());
}

TEST(DecisionTreeTest, CompileMatchesClassify) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    DecisionTree t = DecisionTree::Random(6, 4, rng);
    ObddManager mgr(Vtree::IdentityOrder(6));
    ObddId f = t.CompileToObdd(mgr);
    for (int bits = 0; bits < 64; ++bits) {
      Assignment x(6);
      for (Var v = 0; v < 6; ++v) x[v] = (bits >> v) & 1;
      ASSERT_EQ(mgr.Evaluate(f, x), t.Classify(x)) << "trial " << trial;
    }
  }
}

TEST(RandomForestTest, MajorityVoteAndCompilation) {
  RandomForest rf = RandomForest::Random(5, 7, 3, 99);
  ObddManager mgr(Vtree::IdentityOrder(7));
  ObddId f = rf.CompileToObdd(mgr);
  for (int bits = 0; bits < 128; ++bits) {
    Assignment x(7);
    for (Var v = 0; v < 7; ++v) x[v] = (bits >> v) & 1;
    ASSERT_EQ(mgr.Evaluate(f, x), rf.Classify(x));
  }
}

TEST(BnnTest, CompilationMatchesNetwork) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    BinarizedNeuralNet net(7, 4, seed);
    ObddManager mgr(Vtree::IdentityOrder(7));
    ObddId f = net.CompileToObdd(mgr);
    for (int bits = 0; bits < 128; ++bits) {
      Assignment x(7);
      for (Var v = 0; v < 7; ++v) x[v] = (bits >> v) & 1;
      ASSERT_EQ(mgr.Evaluate(f, x), net.Classify(x)) << "seed " << seed;
    }
  }
}

TEST(BnnTest, NeuronCompilationMatchesActivation) {
  BinarizedNeuralNet net(6, 3, 42);
  ObddManager mgr(Vtree::IdentityOrder(6));
  for (size_t h = 0; h < 3; ++h) {
    ObddId neuron = net.CompileNeuron(mgr, h);
    for (int bits = 0; bits < 64; ++bits) {
      Assignment x(6);
      for (Var v = 0; v < 6; ++v) x[v] = (bits >> v) & 1;
      ASSERT_EQ(mgr.Evaluate(neuron, x), net.HiddenActivations(x)[h]);
    }
  }
}

TEST(BnnTest, ConvolutionalCompilationMatchesNetwork) {
  BinarizedNeuralNet net = BinarizedNeuralNet::Convolutional(3, 3, 2, 4, 7);
  ObddManager mgr(Vtree::IdentityOrder(9));
  const ObddId f = net.CompileToObdd(mgr);
  for (int bits = 0; bits < (1 << 9); ++bits) {
    Assignment x(9);
    for (Var v = 0; v < 9; ++v) x[v] = (bits >> v) & 1;
    ASSERT_EQ(mgr.Evaluate(f, x), net.Classify(x));
  }
  // Each neuron circuit only mentions its receptive field.
  for (size_t h = 0; h < 4; ++h) {
    NnfManager nnf;
    ObddId neuron = net.CompileNeuron(mgr, h);
    if (mgr.IsTerminal(neuron)) continue;
    NnfId exported = mgr.ToNnf(neuron, nnf);
    EXPECT_LE(nnf.NumVarsBelow(exported), 4u);  // 2x2 patch
  }
}

TEST(BnnTest, TrainingImprovesAccuracy) {
  DigitDataset data = MakeDigitDataset(4, 4, 80, 0.05, 3);
  BinarizedNeuralNet net(16, 8, 1);
  const double before = net.Accuracy(data.images, data.labels);
  net.Train(data.images, data.labels, 12);
  const double after = net.Accuracy(data.images, data.labels);
  EXPECT_GE(after, before);
  EXPECT_GT(after, 0.9);
  // Compilation still matches the trained network.
  ObddManager mgr(Vtree::IdentityOrder(16));
  ObddId f = net.CompileToObdd(mgr);
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_EQ(mgr.Evaluate(f, data.images[i]), net.Classify(data.images[i]));
  }
}

TEST(ExplainTest, Fig26PrimeImplicants) {
  // f = (A + ¬C)(B + C)(A + B) with A=var0, B=var1, C=var2.
  ObddManager mgr(Vtree::IdentityOrder(3));
  ObddId a = mgr.LiteralNode(Pos(0)), b = mgr.LiteralNode(Pos(1)),
         c = mgr.LiteralNode(Pos(2));
  ObddId f = mgr.And(mgr.And(mgr.Or(a, mgr.Not(c)), mgr.Or(b, c)), mgr.Or(a, b));

  std::vector<Term> pis = PrimeImplicants(mgr, f);
  std::set<Term> expected = {MakeTerm({1, 2}), MakeTerm({1, 3}),
                             MakeTerm({2, -3})};  // AB, AC, B¬C
  EXPECT_EQ(std::set<Term>(pis.begin(), pis.end()), expected);

  std::vector<Term> neg_pis = PrimeImplicants(mgr, mgr.Not(f));
  std::set<Term> neg_expected = {MakeTerm({-1, -2}), MakeTerm({-1, 3}),
                                 MakeTerm({-2, -3})};  // ¬A¬B, ¬AC, ¬B¬C
  EXPECT_EQ(std::set<Term>(neg_pis.begin(), neg_pis.end()), neg_expected);

  // Instance AB¬C (decision 1): sufficient reasons AB and B¬C.
  std::vector<Term> reasons = SufficientReasons(mgr, f, {true, true, false});
  EXPECT_EQ(std::set<Term>(reasons.begin(), reasons.end()),
            (std::set<Term>{MakeTerm({1, 2}), MakeTerm({2, -3})}));

  // Instance ¬ABC (decision 0): single sufficient reason ¬AC.
  std::vector<Term> neg_reasons =
      SufficientReasons(mgr, f, {false, true, true});
  EXPECT_EQ(std::set<Term>(neg_reasons.begin(), neg_reasons.end()),
            (std::set<Term>{MakeTerm({-1, 3})}));
}

TEST(ExplainTest, PrimeImplicantsMatchQuineMcCluskey) {
  for (uint64_t seed = 0; seed < 15; ++seed) {
    BooleanClassifier c = RandomFunction(6, seed + 60, 0.4);
    ObddManager mgr(Vtree::IdentityOrder(6));
    ObddId f = CompileBruteForce(c, mgr);
    std::vector<Term> obdd_pis = PrimeImplicants(mgr, f);
    std::vector<Term> qmc_pis = PrimeImplicantsQmc(c);
    EXPECT_EQ(std::set<Term>(obdd_pis.begin(), obdd_pis.end()),
              std::set<Term>(qmc_pis.begin(), qmc_pis.end()))
        << "seed " << seed;
  }
}

TEST(ExplainTest, AnySufficientReasonIsMinimalImplicant) {
  Rng seed_rng(9);
  for (uint64_t seed = 0; seed < 10; ++seed) {
    BooleanClassifier c = RandomFunction(7, seed + 200, 0.5);
    ObddManager mgr(Vtree::IdentityOrder(7));
    ObddId f = CompileBruteForce(c, mgr);
    Assignment x(7);
    for (Var v = 0; v < 7; ++v) x[v] = seed_rng.Flip(0.5);
    const Term reason = AnySufficientReason(mgr, f, x);
    const ObddId target = mgr.Evaluate(f, x) ? f : mgr.Not(f);
    // It is an implicant compatible with x...
    ObddId restricted = target;
    for (Lit l : reason) {
      EXPECT_TRUE(Eval(l, x));
      restricted = mgr.Condition(restricted, l);
    }
    EXPECT_EQ(restricted, mgr.True());
    // ...and minimal: dropping any literal breaks it.
    for (size_t i = 0; i < reason.size(); ++i) {
      ObddId weaker = target;
      for (size_t j = 0; j < reason.size(); ++j) {
        if (j != i) weaker = mgr.Condition(weaker, reason[j]);
      }
      EXPECT_NE(weaker, mgr.True());
    }
  }
}

TEST(ExplainTest, ReasonCircuitCharacterizesSufficientReasons) {
  // The reason circuit's satisfying characteristic-subsets are exactly the
  // supersets of sufficient reasons [Darwiche & Hirth 2020].
  for (uint64_t seed = 0; seed < 10; ++seed) {
    BooleanClassifier c = RandomFunction(5, seed + 400, 0.5);
    ObddManager mgr(Vtree::IdentityOrder(5));
    ObddId f = CompileBruteForce(c, mgr);
    Assignment x(5);
    Rng rng(seed);
    for (Var v = 0; v < 5; ++v) x[v] = rng.Flip(0.5);
    NnfManager nnf;
    NnfId reason = ReasonCircuit(mgr, f, x, nnf);
    std::vector<Term> reasons = SufficientReasons(mgr, f, x);
    for (int subset = 0; subset < 32; ++subset) {
      // Characteristics kept: vars with subset bit set.
      std::vector<Var> excluded;
      for (Var v = 0; v < 5; ++v) {
        if (!((subset >> v) & 1)) excluded.push_back(v);
      }
      bool expected = false;
      for (const Term& r : reasons) {
        bool covered = true;
        for (Lit l : r) covered &= ((subset >> l.var()) & 1) != 0;
        expected |= covered;
      }
      EXPECT_EQ(ReasonHoldsWithout(nnf, reason, x, excluded), expected)
          << "seed " << seed << " subset " << subset;
    }
  }
}

TEST(ExplainTest, DecisionBiasMatchesDefinition) {
  // Biased iff the decision changes somewhere on the protected fiber.
  const std::vector<Var> protected_vars = {1, 3};
  for (uint64_t seed = 0; seed < 10; ++seed) {
    BooleanClassifier c = RandomFunction(5, seed + 700, 0.5);
    ObddManager mgr(Vtree::IdentityOrder(5));
    ObddId f = CompileBruteForce(c, mgr);
    Rng rng(seed + 1);
    Assignment x(5);
    for (Var v = 0; v < 5; ++v) x[v] = rng.Flip(0.5);
    bool biased = false;
    for (int p = 0; p < 4; ++p) {
      Assignment y = x;
      y[1] = (p & 1) != 0;
      y[3] = (p & 2) != 0;
      biased |= mgr.Evaluate(f, y) != mgr.Evaluate(f, x);
    }
    EXPECT_EQ(IsDecisionBiased(mgr, f, x, protected_vars), biased)
        << "seed " << seed;
  }
}

TEST(ExplainTest, ClassifierBiasMatchesSupportCheck) {
  ObddManager mgr(Vtree::IdentityOrder(4));
  // f ignores var 3.
  ObddId f = mgr.Or(mgr.And(mgr.LiteralNode(Pos(0)), mgr.LiteralNode(Pos(1))),
                    mgr.LiteralNode(Neg(2)));
  EXPECT_FALSE(IsClassifierBiased(mgr, f, {3}));
  EXPECT_TRUE(IsClassifierBiased(mgr, f, {2}));
  EXPECT_TRUE(IsClassifierBiased(mgr, f, {3, 0}));
}

TEST(ExplainTest, ApproximateReasonVersusExact) {
  // The footnote-18 comparison: Anchor-style sampled explanations are
  // exact, optimistic or pessimistic relative to the sufficient reasons.
  Rng rng(42);
  int exact = 0, optimistic = 0, pessimistic = 0, incomparable = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    BooleanClassifier c = RandomFunction(6, seed + 3000, 0.5);
    ObddManager mgr(Vtree::IdentityOrder(6));
    ObddId f = CompileBruteForce(c, mgr);
    Assignment x(6);
    for (Var v = 0; v < 6; ++v) x[v] = rng.Flip(0.5);
    const Term approx = ApproximateReason(c, x, /*samples=*/64, rng);
    // Approximation only keeps characteristics of x.
    for (Lit l : approx) EXPECT_TRUE(Eval(l, x));
    switch (ClassifyApproximation(SufficientReasons(mgr, f, x), approx)) {
      case ApproximationQuality::kExact:
        ++exact;
        break;
      case ApproximationQuality::kOptimistic:
        ++optimistic;
        break;
      case ApproximationQuality::kPessimistic:
        ++pessimistic;
        break;
      case ApproximationQuality::kIncomparable:
        ++incomparable;
        break;
    }
  }
  // With 64 samples on 6 features the approximation is usually right, and
  // every case is classified.
  EXPECT_EQ(exact + optimistic + pessimistic + incomparable, 20);
  EXPECT_GT(exact, 10);
}

TEST(ExplainTest, ClassifyApproximationCategories) {
  const std::vector<Term> reasons = {{Pos(0), Pos(1)}, {Neg(2)}};
  EXPECT_EQ(ClassifyApproximation(reasons, {Pos(0), Pos(1)}),
            ApproximationQuality::kExact);
  EXPECT_EQ(ClassifyApproximation(reasons, {Pos(0)}),
            ApproximationQuality::kOptimistic);
  EXPECT_EQ(ClassifyApproximation(reasons, {Pos(0), Pos(1), Pos(3)}),
            ApproximationQuality::kPessimistic);
  EXPECT_EQ(ClassifyApproximation(reasons, {Pos(4)}),
            ApproximationQuality::kIncomparable);
}

TEST(RobustnessTest, DecisionRobustnessMatchesBruteForce) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    BooleanClassifier c = RandomFunction(7, seed + 900, 0.5);
    ObddManager mgr(Vtree::IdentityOrder(7));
    ObddId f = CompileBruteForce(c, mgr);
    Rng rng(seed);
    Assignment x(7);
    for (Var v = 0; v < 7; ++v) x[v] = rng.Flip(0.5);
    // Brute-force nearest opposite decision.
    size_t best = SIZE_MAX;
    const bool d = c.classify(x);
    for (int bits = 0; bits < 128; ++bits) {
      Assignment y(7);
      size_t dist = 0;
      for (Var v = 0; v < 7; ++v) {
        y[v] = (bits >> v) & 1;
        dist += y[v] != x[v];
      }
      if (c.classify(y) != d) best = std::min(best, dist);
    }
    EXPECT_EQ(DecisionRobustness(mgr, f, x), best) << "seed " << seed;
  }
}

TEST(RobustnessTest, ConstantClassifierHasInfiniteRobustness) {
  ObddManager mgr(Vtree::IdentityOrder(3));
  EXPECT_EQ(DecisionRobustness(mgr, mgr.True(), {false, false, false}),
            SIZE_MAX);
}

TEST(RobustnessTest, ModelRobustnessMatchesBruteForce) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    BooleanClassifier c = RandomFunction(6, seed + 1200, 0.5);
    ObddManager mgr(Vtree::IdentityOrder(6));
    ObddId f = CompileBruteForce(c, mgr);
    if (f == mgr.True() || f == mgr.False()) continue;
    auto result = ModelRobustness(mgr, f);
    // Brute force histogram.
    std::vector<uint64_t> hist(7, 0);
    double total = 0.0;
    size_t maximum = 0;
    for (int bits = 0; bits < 64; ++bits) {
      Assignment x(6);
      for (Var v = 0; v < 6; ++v) x[v] = (bits >> v) & 1;
      const size_t r = DecisionRobustness(mgr, f, x);
      ++hist[r];
      total += static_cast<double>(r);
      maximum = std::max(maximum, r);
    }
    EXPECT_EQ(result.maximum, maximum) << "seed " << seed;
    EXPECT_NEAR(result.average, total / 64.0, 1e-9) << "seed " << seed;
    for (size_t k = 1; k <= maximum; ++k) {
      EXPECT_EQ(result.histogram[k].ToU64(), hist[k])
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(RobustnessTest, HistogramTotalsAllInstances) {
  BinarizedNeuralNet net(8, 4, 5);
  ObddManager mgr(Vtree::IdentityOrder(8));
  ObddId f = net.CompileToObdd(mgr);
  if (f == mgr.True() || f == mgr.False()) GTEST_SKIP();
  auto result = ModelRobustness(mgr, f);
  BigUint total(0);
  for (const BigUint& h : result.histogram) total += h;
  EXPECT_EQ(total, BigUint::PowerOfTwo(8));
}

// A 100,000-deep OBDD: the all-false instance is n flips from the one
// model. The distance pass is a loop over the reachable list, so it fits
// a 1 MB stack.
TEST(RobustnessTest, DeepObddOnOneMegabyteStack) {
  constexpr size_t kVars = 100000;
  ObddManager mgr(Vtree::IdentityOrder(kVars));
  const ObddId f = DeepObddChain(mgr);
  size_t robustness = 0;
  RunOnSmallStack([&] {
    robustness = DecisionRobustness(mgr, f, Assignment(kVars, false));
  });
  EXPECT_EQ(robustness, kVars);
}

// The reason circuit of a 10,000-deep conjunction at its one model needs
// every characteristic. (At 100,000 the flattened NNF conjunctions make the
// circuit quadratic in n, so the test stays at 10,000.)
TEST(ExplainTest, ReasonCircuitOfDeepObddOnOneMegabyteStack) {
  constexpr size_t kVars = 10000;
  ObddManager mgr(Vtree::IdentityOrder(kVars));
  const ObddId f = DeepObddChain(mgr);
  const Assignment x(kVars, true);
  NnfManager nnf;
  NnfId reason = nnf.False();
  RunOnSmallStack([&] { reason = ReasonCircuit(mgr, f, x, nnf); });
  EXPECT_TRUE(nnf.Evaluate(reason, x));
  EXPECT_FALSE(ReasonHoldsWithout(nnf, reason, x, {kVars / 2}));
}

}  // namespace
}  // namespace tbc
