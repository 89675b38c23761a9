#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "psdd/conditional.h"
#include "psdd/learn.h"
#include "psdd/psdd.h"
#include "sdd/compile.h"

namespace tbc {
namespace {

// The paper's course constraint (Figs 13-15): variables A=0 (AI), K=1
// (knowledge representation), L=2 (logic), P=3 (probability), constraint
// (P∨L) ∧ (A⇒P) ∧ (K⇒(A∨L)), vtree ((L K) (P A)).
Cnf CourseConstraint() {
  Cnf cnf(4);
  cnf.AddClauseDimacs({4, 3});
  cnf.AddClauseDimacs({-1, 4});
  cnf.AddClauseDimacs({-2, 1, 3});
  return cnf;
}

Vtree PaperVtree() { return Vtree::Balanced({2, 1, 3, 0}); }

// A synthetic version of the Fig 15 enrollment table: counts over the 9
// valid course combinations (A, K, L, P).
WeightedData CourseData() {
  return WeightedData::FromCounts({
      {{false, false, true, false}, 54},   // L only
      {{false, false, false, true}, 98},   // P only
      {{false, false, true, true}, 76},    // L, P
      {{false, true, true, false}, 33},    // K, L
      {{false, true, true, true}, 77},     // K, L, P
      {{true, false, false, true}, 68},    // A, P
      {{true, false, true, true}, 64},     // A, L, P
      {{true, true, false, true}, 51},     // A, K, P
      {{true, true, true, true}, 38},      // A, K, L, P
  });
}

TEST(PsddTest, UniformParametersOnConstraintBase) {
  SddManager m(PaperVtree());
  SddId base = CompileCnf(m, CourseConstraint());
  Psdd psdd(m, base);
  // Probabilities over all 16 inputs sum to 1 and vanish off-base (Fig 14).
  double total = 0.0;
  int support = 0;
  for (int bits = 0; bits < 16; ++bits) {
    Assignment x(4);
    for (Var v = 0; v < 4; ++v) x[v] = (bits >> v) & 1;
    const double p = psdd.Probability(x);
    EXPECT_EQ(p > 0.0, m.Evaluate(base, x));
    total += p;
    support += p > 0.0;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_EQ(support, 9);
}

TEST(PsddTest, FullSpacePsddIsProductOfBernoullis) {
  SddManager m(Vtree::Balanced({0, 1, 2}));
  Psdd psdd(m, m.True());
  // Uniform parameters: every input has probability 1/8.
  for (int bits = 0; bits < 8; ++bits) {
    Assignment x = {(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
    EXPECT_NEAR(psdd.Probability(x), 0.125, 1e-12);
  }
}

TEST(PsddTest, LearnedSufficientStatisticsMatchEmpirical) {
  // ML parameters match the empirical distribution on the PSDD's
  // sufficient statistics (per-node context/prime frequencies), even
  // though the fixed vtree imposes context-specific independencies that
  // keep it from matching every joint probability. The paper states this
  // scoping explicitly: the learned distribution maximizes data
  // probability "under the chosen vtree".
  SddManager m(PaperVtree());
  SddId base = CompileCnf(m, CourseConstraint());
  WeightedData data = CourseData();
  Psdd psdd = LearnPsdd(m, base, data, /*laplace=*/0.0);
  const double total = data.TotalWeight();
  auto empirical = [&](auto&& pred) {
    double mass = 0.0;
    for (size_t i = 0; i < data.examples.size(); ++i) {
      if (pred(data.examples[i])) mass += data.weights[i];
    }
    return mass / total;
  };
  // Root primes over {L, K}: L; ¬L∧K is empty in this base (K⇒(A∨L) with
  // ¬L forces A, and A⇒P; fine), check L and ¬L masses.
  PsddEvidence e(4, Obs::kUnknown);
  e[2] = Obs::kTrue;
  EXPECT_NEAR(psdd.ProbabilityEvidence(e),
              empirical([](const Assignment& x) { return x[2]; }), 1e-12);
  // Pr(K=1, L=1): the Top(K) parameter in the L-prime context.
  e[1] = Obs::kTrue;
  EXPECT_NEAR(psdd.ProbabilityEvidence(e),
              empirical([](const Assignment& x) { return x[2] && x[1]; }),
              1e-12);
}

TEST(PsddTest, MlIsOptimalUnderPerturbation) {
  // The closed-form count-ratio parameters maximize likelihood: learning
  // from data sampled off the learned distribution cannot improve on it.
  SddManager m(PaperVtree());
  SddId base = CompileCnf(m, CourseConstraint());
  WeightedData data = CourseData();
  Psdd learned = LearnPsdd(m, base, data, 0.0);
  double ll_learned = 0.0;
  for (size_t i = 0; i < data.examples.size(); ++i) {
    ll_learned += data.weights[i] * std::log(learned.Probability(data.examples[i]));
  }
  // Alternative parameterizations of the same structure: different
  // Laplace smoothing levels act as perturbations toward uniform.
  for (double alpha : {0.5, 2.0, 10.0, 100.0}) {
    Psdd other = LearnPsdd(m, base, data, alpha);
    double ll_other = 0.0;
    for (size_t i = 0; i < data.examples.size(); ++i) {
      ll_other += data.weights[i] * std::log(other.Probability(data.examples[i]));
    }
    EXPECT_LE(ll_other, ll_learned + 1e-9) << "alpha " << alpha;
  }
}

TEST(PsddTest, MlRecoversRepresentableDistributionsExactly) {
  // When the empirical distribution IS representable by the structure
  // (here: generated by a learned PSDD), ML recovers it exactly.
  SddManager m(PaperVtree());
  SddId base = CompileCnf(m, CourseConstraint());
  Psdd source = LearnPsdd(m, base, CourseData(), 1.0);
  std::vector<std::pair<Assignment, double>> rows;
  for (int bits = 0; bits < 16; ++bits) {
    Assignment x(4);
    for (Var v = 0; v < 4; ++v) x[v] = (bits >> v) & 1;
    const double p = source.Probability(x);
    if (p > 0.0) rows.push_back({x, p * 1e6});
  }
  WeightedData data = WeightedData::FromCounts(rows);
  Psdd relearned = LearnPsdd(m, base, data, 0.0);
  for (const auto& [x, unused] : rows) {
    EXPECT_NEAR(relearned.Probability(x), source.Probability(x), 1e-10);
  }
  EXPECT_NEAR(EmpiricalKl(data, relearned), 0.0, 1e-10);
}

TEST(PsddTest, LearnedDistributionIsNormalized) {
  SddManager m(PaperVtree());
  SddId base = CompileCnf(m, CourseConstraint());
  Psdd psdd = LearnPsdd(m, base, CourseData(), /*laplace=*/0.5);
  double total = 0.0;
  for (int bits = 0; bits < 16; ++bits) {
    Assignment x(4);
    for (Var v = 0; v < 4; ++v) x[v] = (bits >> v) & 1;
    total += psdd.Probability(x);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(PsddTest, EvidenceProbabilityMatchesSummation) {
  SddManager m(PaperVtree());
  SddId base = CompileCnf(m, CourseConstraint());
  Psdd psdd = LearnPsdd(m, base, CourseData(), 0.1);
  // Pr(L=1) by evidence query vs explicit summation.
  PsddEvidence e(4, Obs::kUnknown);
  e[2] = Obs::kTrue;
  double sum = 0.0;
  for (int bits = 0; bits < 16; ++bits) {
    Assignment x(4);
    for (Var v = 0; v < 4; ++v) x[v] = (bits >> v) & 1;
    if (x[2]) sum += psdd.Probability(x);
  }
  EXPECT_NEAR(psdd.ProbabilityEvidence(e), sum, 1e-12);
  // Multi-variable evidence.
  e[0] = Obs::kFalse;
  sum = 0.0;
  for (int bits = 0; bits < 16; ++bits) {
    Assignment x(4);
    for (Var v = 0; v < 4; ++v) x[v] = (bits >> v) & 1;
    if (x[2] && !x[0]) sum += psdd.Probability(x);
  }
  EXPECT_NEAR(psdd.ProbabilityEvidence(e), sum, 1e-12);
}

TEST(PsddTest, MarginalsMatchEvidenceQueries) {
  SddManager m(PaperVtree());
  SddId base = CompileCnf(m, CourseConstraint());
  Psdd psdd = LearnPsdd(m, base, CourseData(), 0.1);
  PsddEvidence e(4, Obs::kUnknown);
  e[3] = Obs::kTrue;  // P observed true
  const std::vector<double> marg = psdd.Marginals(e, /*normalized=*/false);
  for (Var v = 0; v < 4; ++v) {
    PsddEvidence ev = e;
    ev[v] = Obs::kTrue;
    EXPECT_NEAR(marg[v], psdd.ProbabilityEvidence(ev), 1e-12) << "var " << v;
  }
  // Normalized marginals are conditional probabilities.
  const std::vector<double> post = psdd.Marginals(e, /*normalized=*/true);
  EXPECT_NEAR(post[3], 1.0, 1e-12);
  for (Var v = 0; v < 4; ++v) {
    EXPECT_GE(post[v], 0.0);
    EXPECT_LE(post[v], 1.0 + 1e-12);
  }
}

TEST(PsddTest, MpeMatchesExhaustiveSearch) {
  SddManager m(PaperVtree());
  SddId base = CompileCnf(m, CourseConstraint());
  Psdd psdd = LearnPsdd(m, base, CourseData(), 0.2);
  PsddEvidence none(4, Obs::kUnknown);
  double best = -1.0;
  for (int bits = 0; bits < 16; ++bits) {
    Assignment x(4);
    for (Var v = 0; v < 4; ++v) x[v] = (bits >> v) & 1;
    best = std::max(best, psdd.Probability(x));
  }
  auto mpe = psdd.MostProbable(none);
  EXPECT_NEAR(mpe.probability, best, 1e-12);
  EXPECT_NEAR(psdd.Probability(mpe.assignment), best, 1e-12);

  // With evidence A=1.
  PsddEvidence e(4, Obs::kUnknown);
  e[0] = Obs::kTrue;
  best = -1.0;
  for (int bits = 0; bits < 16; ++bits) {
    Assignment x(4);
    for (Var v = 0; v < 4; ++v) x[v] = (bits >> v) & 1;
    if (x[0]) best = std::max(best, psdd.Probability(x));
  }
  auto mpe_e = psdd.MostProbable(e);
  EXPECT_NEAR(mpe_e.probability, best, 1e-12);
  EXPECT_TRUE(mpe_e.assignment[0]);
}

TEST(PsddTest, SamplesFollowTheDistribution) {
  SddManager m(PaperVtree());
  SddId base = CompileCnf(m, CourseConstraint());
  Psdd psdd = LearnPsdd(m, base, CourseData(), 0.0);
  Rng rng(123);
  std::map<Assignment, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[psdd.Sample(rng)];
  for (const auto& [x, count] : counts) {
    const double expected = psdd.Probability(x);
    EXPECT_GT(expected, 0.0);  // samples stay inside the base
    EXPECT_NEAR(static_cast<double>(count) / n, expected, 0.02);
  }
}

TEST(PsddTest, LogLikelihoodImprovesWithLearning) {
  SddManager m(PaperVtree());
  SddId base = CompileCnf(m, CourseConstraint());
  WeightedData data = CourseData();
  Psdd uniform(m, base);
  Psdd learned = LearnPsdd(m, base, data, 0.0);
  // Compare weighted log-likelihoods.
  double ll_uniform = 0.0, ll_learned = 0.0;
  for (size_t i = 0; i < data.examples.size(); ++i) {
    ll_uniform += data.weights[i] * std::log(uniform.Probability(data.examples[i]));
    ll_learned += data.weights[i] * std::log(learned.Probability(data.examples[i]));
  }
  EXPECT_GT(ll_learned, ll_uniform);
}

TEST(PsddTest, MultiplyMatchesPointwiseProduct) {
  SddManager m(PaperVtree());
  SddId base = CompileCnf(m, CourseConstraint());
  WeightedData data = CourseData();
  Psdd p1 = LearnPsdd(m, base, data, 0.5);
  Psdd p2 = LearnPsdd(m, base, data, 5.0);  // different smoothing
  double z = 0.0;
  Psdd prod = p1.Multiply(p2, &z);
  double z_brute = 0.0;
  for (int bits = 0; bits < 16; ++bits) {
    Assignment x(4);
    for (Var v = 0; v < 4; ++v) x[v] = (bits >> v) & 1;
    z_brute += p1.Probability(x) * p2.Probability(x);
  }
  EXPECT_NEAR(z, z_brute, 1e-12);
  for (int bits = 0; bits < 16; ++bits) {
    Assignment x(4);
    for (Var v = 0; v < 4; ++v) x[v] = (bits >> v) & 1;
    EXPECT_NEAR(prod.Probability(x), p1.Probability(x) * p2.Probability(x) / z,
                1e-12);
  }
}

TEST(PsddTest, MultiplyWithFullSpaceBernoullis) {
  SddManager m(Vtree::Balanced({0, 1}));
  Psdd a(m, m.True());
  Psdd b(m, m.True());
  // Make a non-uniform: Pr(x0=1)=0.9, Pr(x1=1)=0.5 via learning.
  std::vector<Assignment> data = {{true, true}, {true, false}, {true, true},
                                  {true, false}, {true, true}, {false, false},
                                  {true, true}, {true, false}, {true, true},
                                  {true, false}};
  a.LearnParameters(data, {}, 0.0);
  double z = 0.0;
  Psdd prod = a.Multiply(b, &z);
  EXPECT_NEAR(z, 0.25, 1e-12);  // b uniform: sum_x a(x)*0.25
  for (int bits = 0; bits < 4; ++bits) {
    Assignment x = {(bits & 1) != 0, (bits & 2) != 0};
    EXPECT_NEAR(prod.Probability(x), a.Probability(x), 1e-12);
  }
}

TEST(PsddTest, ParameterSerializationRoundTrip) {
  SddManager m(PaperVtree());
  SddId base = CompileCnf(m, CourseConstraint());
  Psdd learned = LearnPsdd(m, base, CourseData(), 0.5);
  const std::string params = learned.SerializeParameters();

  Psdd fresh(m, base);  // uniform parameters
  ASSERT_TRUE(fresh.LoadParameters(params).ok());
  for (int bits = 0; bits < 16; ++bits) {
    Assignment x(4);
    for (Var v = 0; v < 4; ++v) x[v] = (bits >> v) & 1;
    EXPECT_NEAR(fresh.Probability(x), learned.Probability(x), 1e-15);
  }
}

TEST(PsddTest, LoadParametersRejectsBadInput) {
  SddManager m(PaperVtree());
  SddId base = CompileCnf(m, CourseConstraint());
  Psdd psdd(m, base);
  EXPECT_FALSE(psdd.LoadParameters("").ok());
  EXPECT_FALSE(psdd.LoadParameters("psdd-params 1\n").ok());  // wrong count
  EXPECT_FALSE(psdd.LoadParameters("P 0 0.5\n").ok());        // no header
  const std::string header =
      "psdd-params " + std::to_string(psdd.num_nodes()) + "\n";
  EXPECT_FALSE(psdd.LoadParameters(header + "P 99999 0.5\n").ok());
  // Non-normalized decision parameters rejected: find a decision node.
  for (PsddId n = 0; n < psdd.num_nodes(); ++n) {
    if (psdd.kind(n) == Psdd::Kind::kDecision && psdd.elements(n).size() == 2) {
      EXPECT_FALSE(
          psdd.LoadParameters(header + "P " + std::to_string(n) + " 0.9 0.9\n")
              .ok());
      break;
    }
  }
  // Every token is read whole: trailing junk on a θ or on the header's
  // count, or a stray token after the θs, is malformed text.
  PsddId top = kInvalidPsdd;
  for (PsddId n = 0; n < psdd.num_nodes() && top == kInvalidPsdd; ++n) {
    if (psdd.kind(n) == Psdd::Kind::kTop) top = n;
  }
  ASSERT_NE(top, kInvalidPsdd);
  const std::string t = "P " + std::to_string(top);
  const double before = psdd.theta_true(top);
  for (const std::string& bad :
       {header + t + " 0.25junk\n", header + t + " 0.25 hello\n",
        "psdd-params " + std::to_string(psdd.num_nodes()) + "xyz\n" + t +
            " 0.25\n",
        // A refused load writes no θ, not even those of its good lines.
        header + t + " 0.125\nP 99999 0.5\n"}) {
    const Status status = psdd.LoadParameters(bad);
    EXPECT_EQ(status.code(), StatusCode::kInvalidInput) << bad;
    EXPECT_NE(status.message().find("line "), std::string::npos) << bad;
    EXPECT_EQ(psdd.theta_true(top), before) << bad;
  }
  ASSERT_TRUE(psdd.LoadParameters(header + t + " 0.25\n").ok());
  EXPECT_EQ(psdd.theta_true(top), 0.25);
}

TEST(PsddTest, KlDivergenceMatchesBruteForce) {
  SddManager m(PaperVtree());
  SddId base = CompileCnf(m, CourseConstraint());
  Psdd p = LearnPsdd(m, base, CourseData(), 0.5);
  Psdd q = LearnPsdd(m, base, CourseData(), 20.0);
  double brute = 0.0;
  for (int bits = 0; bits < 16; ++bits) {
    Assignment x(4);
    for (Var v = 0; v < 4; ++v) x[v] = (bits >> v) & 1;
    const double px = p.Probability(x);
    if (px > 0.0) brute += px * std::log(px / q.Probability(x));
  }
  EXPECT_NEAR(p.KlDivergence(q), brute, 1e-12);
  // KL properties: zero against itself, nonnegative.
  EXPECT_NEAR(p.KlDivergence(p), 0.0, 1e-14);
  EXPECT_GE(p.KlDivergence(q), 0.0);
  EXPECT_GE(q.KlDivergence(p), 0.0);
}

TEST(PsddTest, KlDivergenceOnFullSpace) {
  SddManager m(Vtree::Balanced({0, 1, 2}));
  Psdd p(m, m.True());
  Psdd q(m, m.True());
  std::vector<Assignment> biased;
  for (int i = 0; i < 9; ++i) biased.push_back({true, i % 2 == 0, false});
  biased.push_back({false, true, true});
  q.LearnParameters(biased, {}, 1.0);
  double brute = 0.0;
  for (int bits = 0; bits < 8; ++bits) {
    Assignment x = {(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
    const double px = p.Probability(x);
    brute += px * std::log(px / q.Probability(x));
  }
  EXPECT_NEAR(p.KlDivergence(q), brute, 1e-12);
}

TEST(ConditionalPsddTest, Fig21Semantics) {
  // Paper Fig 21: parents A=0, B=1; children X=2, Y=3. The space of X,Y is
  // x0∨y0 (i.e. ¬X∨¬Y) when A=0,B=0, and x1∨y1 (X∨Y) otherwise.
  SddManager parents(Vtree::Balanced({0, 1}));
  SddManager children(Vtree::Balanced({2, 3}));
  ConditionalPsdd cpsdd(&parents, &children);
  SddId a0b0 = parents.Conjoin(parents.LiteralNode(Neg(0)),
                               parents.LiteralNode(Neg(1)));
  SddId rest = parents.Negate(a0b0);
  SddId not_both = children.Disjoin(children.LiteralNode(Neg(2)),
                                    children.LiteralNode(Neg(3)));
  SddId at_least_one = children.Disjoin(children.LiteralNode(Pos(2)),
                                        children.LiteralNode(Pos(3)));
  cpsdd.AddBranch(a0b0, not_both);
  cpsdd.AddBranch(rest, at_least_one);
  EXPECT_TRUE(cpsdd.GuardsAreDisjoint());

  // Branch selection follows the parent state (Fig 24).
  EXPECT_EQ(cpsdd.SelectBranch({false, false, false, false}), 0u);
  EXPECT_EQ(cpsdd.SelectBranch({true, false, false, false}), 1u);

  // Conditionals are normalized over each branch's space.
  for (int pbits = 0; pbits < 4; ++pbits) {
    double total = 0.0;
    for (int cbits = 0; cbits < 4; ++cbits) {
      Assignment x = {(pbits & 1) != 0, (pbits & 2) != 0, (cbits & 1) != 0,
                      (cbits & 2) != 0};
      total += cpsdd.Conditional(x);
    }
    EXPECT_NEAR(total, 1.0, 1e-12) << "parent state " << pbits;
  }
  // X=Y=1 is impossible under A=0,B=0; X=Y=0 impossible otherwise.
  EXPECT_EQ(cpsdd.Conditional({false, false, true, true}), 0.0);
  EXPECT_EQ(cpsdd.Conditional({true, true, false, false}), 0.0);
}

TEST(ConditionalPsddTest, LearningRoutesDataToBranches) {
  SddManager parents(Vtree::Balanced({0}));
  SddManager children(Vtree::Balanced({1}));
  ConditionalPsdd cpsdd(&parents, &children);
  cpsdd.AddBranch(parents.LiteralNode(Neg(0)), children.True());
  cpsdd.AddBranch(parents.LiteralNode(Pos(0)), children.True());
  // Child strongly correlates with parent.
  std::vector<Assignment> data = {{false, false}, {false, false}, {false, true},
                                  {true, true},   {true, true},   {true, true},
                                  {true, false}};
  cpsdd.LearnParameters(data, {}, 0.0);
  EXPECT_NEAR(cpsdd.Conditional({false, false}), 2.0 / 3, 1e-12);
  EXPECT_NEAR(cpsdd.Conditional({true, true}), 3.0 / 4, 1e-12);
}

TEST(StructuredBayesNetTest, JointFactorizesAndSamples) {
  // Two clusters: root {0,1} and child {2} given {0,1}.
  auto parents_mgr = std::make_shared<SddManager>(Vtree::Balanced({0, 1}));
  auto child_mgr = std::make_shared<SddManager>(Vtree::Balanced({2}));
  // Keep managers alive for the duration of the test.
  static std::vector<std::shared_ptr<SddManager>> keep;
  keep.push_back(parents_mgr);
  keep.push_back(child_mgr);

  StructuredBayesNet sbn;
  auto root_cond = std::make_unique<ConditionalPsdd>(nullptr, parents_mgr.get());
  root_cond->AddBranch(parents_mgr->True(), parents_mgr->True());
  const size_t root = sbn.AddCluster("roots", {0, 1}, {}, std::move(root_cond));

  auto child_cond =
      std::make_unique<ConditionalPsdd>(parents_mgr.get(), child_mgr.get());
  SddId both = parents_mgr->Conjoin(parents_mgr->LiteralNode(Pos(0)),
                                    parents_mgr->LiteralNode(Pos(1)));
  child_cond->AddBranch(both, child_mgr->LiteralNode(Pos(2)));  // forced true
  child_cond->AddBranch(parents_mgr->Negate(both), child_mgr->True());
  sbn.AddCluster("child", {2}, {root}, std::move(child_cond));

  // Joint sums to 1.
  double total = 0.0;
  for (int bits = 0; bits < 8; ++bits) {
    Assignment x = {(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
    total += sbn.JointProbability(x);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Under parents (1,1) the child is forced true.
  EXPECT_EQ(sbn.JointProbability({true, true, false}), 0.0);

  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    Assignment x = sbn.Sample(3, rng);
    EXPECT_GT(sbn.JointProbability(x), 0.0);
  }
}

}  // namespace
}  // namespace tbc
