#include <gtest/gtest.h>

#include <cmath>

#include "base/random.h"
#include "bayes/circuit_inference.h"
#include "bayes/network.h"
#include "bayes/jointree.h"
#include "bayes/varelim.h"
#include "bayes/wmc_encoding.h"
#include "compiler/model_counter.h"
#include "psdd/learn.h"
#include "sdd/compile.h"
#include "sat/enumerate.h"

namespace tbc {
namespace {

// The paper's Fig 4 network: A with children B and C (binary).
BayesianNetwork ChainNetwork() {
  BayesianNetwork net;
  BnVar a = net.AddBinary("A", {}, {0.3});
  net.AddBinary("B", {a}, {0.8, 0.2});   // Pr(B=1|A=0)=0.8, Pr(B=1|A=1)=0.2
  net.AddBinary("C", {a}, {0.1, 0.9});
  return net;
}

// The paper's Fig 2 medical network: sex -> c -> {T1, T2} -> AGREE.
// CPT values are our own (the figure's numbers are not in the text);
// DESIGN.md records this substitution.
BayesianNetwork MedicalNetwork() {
  BayesianNetwork net;
  BnVar sex = net.AddBinary("sex", {}, {0.55});             // 1 = female
  BnVar c = net.AddBinary("c", {sex}, {0.05, 0.15});        // condition
  BnVar t1 = net.AddBinary("T1", {c}, {0.10, 0.85});        // test 1 positive
  BnVar t2 = net.AddBinary("T2", {c}, {0.20, 0.75});        // test 2 positive
  net.AddBinary("AGREE", {t1, t2}, {0.95, 0.05, 0.05, 0.95});
  return net;
}

TEST(BayesianNetworkTest, JointProbabilityFactorizes) {
  BayesianNetwork net = ChainNetwork();
  // Pr(A=1,B=1,C=0) = 0.3 * 0.2 * (1-0.9).
  EXPECT_NEAR(net.JointProbability({1, 1, 0}), 0.3 * 0.2 * 0.1, 1e-12);
  // All instantiations sum to 1.
  double total = 0.0;
  for (uint64_t i = 0; i < net.NumInstantiations(); ++i) {
    total += net.JointProbability(net.InstantiationAt(i));
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(BayesianNetworkTest, MultiValuedVariables) {
  BayesianNetwork net;
  BnVar w = net.AddVariable("weather", 3, {}, {0.5, 0.3, 0.2});
  net.AddVariable("mood", 2, {w}, {0.9, 0.1, 0.5, 0.5, 0.2, 0.8});
  EXPECT_NEAR(net.JointProbability({2, 1}), 0.2 * 0.8, 1e-12);
  double total = 0.0;
  for (uint64_t i = 0; i < net.NumInstantiations(); ++i) {
    total += net.JointProbability(net.InstantiationAt(i));
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(VariableEliminationTest, MarginalsMatchBruteForce) {
  BayesianNetwork net = BayesianNetwork::RandomBinary(7, 3, 5);
  VariableElimination ve(net);
  BnInstantiation no_evidence(7, kUnobserved);
  for (BnVar v = 0; v < 7; ++v) {
    for (int x = 0; x < 2; ++x) {
      EXPECT_NEAR(ve.Marginal(v, x, no_evidence),
                  net.MarginalBruteForce(v, x, no_evidence), 1e-10);
    }
  }
}

TEST(VariableEliminationTest, EvidenceAndPosterior) {
  BayesianNetwork net = MedicalNetwork();
  VariableElimination ve(net);
  BnInstantiation e(5, kUnobserved);
  e[2] = 1;  // T1 positive
  const double pe = ve.ProbEvidence(e);
  EXPECT_NEAR(pe, net.MarginalBruteForce(2, 1, BnInstantiation(5, kUnobserved)),
              1e-10);
  const double post = ve.Posterior(1, 1, e);  // Pr(c | T1=1)
  EXPECT_NEAR(post, net.MarginalBruteForce(1, 1, e) / pe, 1e-10);
  EXPECT_GT(post, ve.Posterior(1, 1, BnInstantiation(5, kUnobserved)));
}

TEST(VariableEliminationTest, MpeMatchesExhaustive) {
  BayesianNetwork net = BayesianNetwork::RandomBinary(6, 2, 11);
  VariableElimination ve(net);
  BnInstantiation no_evidence(6, kUnobserved);
  double best = -1.0;
  for (uint64_t i = 0; i < net.NumInstantiations(); ++i) {
    best = std::max(best, net.JointProbability(net.InstantiationAt(i)));
  }
  EXPECT_NEAR(ve.MpeValue(no_evidence), best, 1e-12);
  BnInstantiation mpe = ve.Mpe(no_evidence);
  EXPECT_NEAR(net.JointProbability(mpe), best, 1e-12);
}

TEST(VariableEliminationTest, MapMatchesExhaustive) {
  BayesianNetwork net = BayesianNetwork::RandomBinary(6, 2, 13);
  VariableElimination ve(net);
  const std::vector<BnVar> y = {1, 3};
  BnInstantiation no_evidence(6, kUnobserved);
  double best = -1.0;
  for (int y1 = 0; y1 < 2; ++y1) {
    for (int y3 = 0; y3 < 2; ++y3) {
      BnInstantiation e(6, kUnobserved);
      e[1] = y1;
      e[3] = y3;
      best = std::max(best, ve.ProbEvidence(e));
    }
  }
  std::vector<int> argmax;
  EXPECT_NEAR(ve.Map(y, no_evidence, &argmax), best, 1e-12);
  BnInstantiation e(6, kUnobserved);
  e[1] = argmax[0];
  e[3] = argmax[1];
  EXPECT_NEAR(ve.ProbEvidence(e), best, 1e-12);
}

TEST(JointreeTest, MatchesVariableEliminationOnRandomNets) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    BayesianNetwork net = BayesianNetwork::RandomBinary(7, 3, seed + 200);
    Jointree jt(net);
    VariableElimination ve(net);
    EXPECT_GE(jt.num_cliques(), 1u);
    EXPECT_GE(jt.max_clique_size(), 1u);
    BnInstantiation none(7, kUnobserved);
    EXPECT_NEAR(jt.ProbEvidence(none), 1.0, 1e-10) << seed;
    for (BnVar v = 0; v < 7; ++v) {
      EXPECT_NEAR(jt.Marginal(v, 1, none), ve.Marginal(v, 1, none), 1e-10)
          << "seed " << seed << " var " << v;
    }
  }
}

TEST(JointreeTest, EvidenceAndAllMarginals) {
  BayesianNetwork net = MedicalNetwork();
  Jointree jt(net);
  VariableElimination ve(net);
  BnInstantiation e(5, kUnobserved);
  e[2] = 1;
  e[4] = 0;
  EXPECT_NEAR(jt.ProbEvidence(e), ve.ProbEvidence(e), 1e-10);
  auto all = jt.AllMarginals(e);
  for (BnVar v = 0; v < 5; ++v) {
    for (int x = 0; x < 2; ++x) {
      EXPECT_NEAR(all[v][x], ve.Marginal(v, x, e), 1e-10)
          << "var " << v << " value " << x;
    }
  }
}

TEST(JointreeTest, MultiValuedNetwork) {
  BayesianNetwork net;
  const BnVar w = net.AddVariable("w", 3, {}, {0.5, 0.3, 0.2});
  net.AddVariable("m", 2, {w}, {0.9, 0.1, 0.5, 0.5, 0.2, 0.8});
  Jointree jt(net);
  VariableElimination ve(net);
  BnInstantiation none(2, kUnobserved);
  for (int x = 0; x < 3; ++x) {
    EXPECT_NEAR(jt.Marginal(w, x, none), ve.Marginal(w, x, none), 1e-12);
  }
}

TEST(PsddEmTest, OneIterationOnCompleteDataEqualsMl) {
  // EM with complete data must reproduce the closed-form ML parameters
  // after a single iteration (expected counts == actual counts).
  Cnf constraint(4);
  constraint.AddClauseDimacs({4, 3});
  constraint.AddClauseDimacs({-1, 4});
  constraint.AddClauseDimacs({-2, 1, 3});
  SddManager mgr(Vtree::Balanced({2, 1, 3, 0}));
  const SddId base = CompileCnf(mgr, constraint);

  std::vector<Assignment> data = {
      {false, false, true, false}, {false, false, false, true},
      {true, false, false, true},  {false, true, true, true},
      {false, false, true, true},  {true, true, true, true},
      {false, false, false, true}, {true, false, true, true}};
  Psdd ml(mgr, base);
  ml.LearnParameters(data, {}, 0.0);

  Psdd em(mgr, base);
  std::vector<PsddEvidence> complete;
  for (const Assignment& x : data) {
    PsddEvidence e(4);
    for (Var v = 0; v < 4; ++v) e[v] = x[v] ? Obs::kTrue : Obs::kFalse;
    complete.push_back(e);
  }
  em.LearnParametersEm(complete, {}, 0.0, 1);
  for (int bits = 0; bits < 16; ++bits) {
    Assignment x(4);
    for (Var v = 0; v < 4; ++v) x[v] = (bits >> v) & 1;
    EXPECT_NEAR(em.Probability(x), ml.Probability(x), 1e-12) << bits;
  }
}

TEST(PsddEmTest, LikelihoodNeverDecreasesOnIncompleteData) {
  Cnf constraint(4);
  constraint.AddClauseDimacs({4, 3});
  constraint.AddClauseDimacs({-1, 4});
  constraint.AddClauseDimacs({-2, 1, 3});
  SddManager mgr(Vtree::Balanced({2, 1, 3, 0}));
  const SddId base = CompileCnf(mgr, constraint);

  // Incomplete data: the paper's example ("30 students took logic, AI and
  // probability, without specifying knowledge representation").
  Rng rng(8);
  std::vector<PsddEvidence> data;
  for (int i = 0; i < 60; ++i) {
    PsddEvidence e(4, Obs::kUnknown);
    e[2] = rng.Flip(0.7) ? Obs::kTrue : Obs::kFalse;   // logic observed
    e[3] = rng.Flip(0.8) ? Obs::kTrue : Obs::kFalse;   // probability observed
    if (rng.Flip(0.5)) e[0] = rng.Flip(0.4) ? Obs::kTrue : Obs::kFalse;
    // Keep the evidence consistent with the constraint: P∨L and A⇒P.
    if (e[2] == Obs::kFalse && e[3] == Obs::kFalse) e[3] = Obs::kTrue;
    if (e[0] == Obs::kTrue && e[3] == Obs::kFalse) e[0] = Obs::kFalse;
    data.push_back(e);
  }
  Psdd psdd(mgr, base);
  double previous = -1e100;
  for (int iter = 0; iter < 8; ++iter) {
    const double ll = psdd.LearnParametersEm(data, {}, 0.0, 1);
    EXPECT_GE(ll, previous - 1e-9) << "iteration " << iter;
    previous = ll;
  }
  // The learned model is still a distribution.
  double total = 0.0;
  for (int bits = 0; bits < 16; ++bits) {
    Assignment x(4);
    for (Var v = 0; v < 4; ++v) x[v] = (bits >> v) & 1;
    total += psdd.Probability(x);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(WmcEncodingTest, ModelsAreNetworkInstantiations) {
  BayesianNetwork net = ChainNetwork();
  WmcEncoding enc(net);
  // Exactly 8 models (paper: "exactly eight models, which correspond to
  // the network instantiations").
  EXPECT_EQ(CountModelsUpTo(enc.cnf(), 100), 8u);
}

TEST(WmcEncodingTest, ModelWeightIsJointProbability) {
  BayesianNetwork net = ChainNetwork();
  WmcEncoding enc(net);
  EnumerateModels(enc.cnf(), 100, [&](const Assignment& model) {
    const BnInstantiation inst = enc.DecodeModel(model);
    double weight = 1.0;
    for (Var v = 0; v < enc.num_bool_vars(); ++v) {
      weight *= enc.weights()[Lit(v, model[v])];
    }
    EXPECT_NEAR(weight, net.JointProbability(inst), 1e-12);
  });
}

TEST(WmcEncodingTest, WmcIsOne) {
  BayesianNetwork net = MedicalNetwork();
  WmcEncoding enc(net);
  ModelCounter counter;
  EXPECT_NEAR(counter.Wmc(enc.cnf(), enc.weights()), 1.0, 1e-10);
}

TEST(WmcEncodingTest, WmcWithEvidenceIsMarginal) {
  BayesianNetwork net = MedicalNetwork();
  WmcEncoding enc(net);
  ModelCounter counter;
  BnInstantiation e(5, kUnobserved);
  e[4] = 1;  // AGREE = yes
  EXPECT_NEAR(counter.Wmc(enc.cnf(), enc.WeightsWithEvidence(e)),
              net.MarginalBruteForce(4, 1, BnInstantiation(5, kUnobserved)),
              1e-10);
}

TEST(WmcEncodingTest, DeterminismRefinementPreservesMarginals) {
  // AGREE is a deterministic function (equality) of T1 and T2: the refined
  // reduction drops its parameter variables entirely.
  BayesianNetwork net;
  BnVar c = net.AddBinary("c", {}, {0.2});
  BnVar t1 = net.AddBinary("T1", {c}, {0.1, 0.9});
  BnVar t2 = net.AddBinary("T2", {c}, {0.3, 0.7});
  net.AddBinary("AGREE", {t1, t2}, {1.0, 0.0, 0.0, 1.0});

  WmcEncoding plain(net);
  WmcEncoding refined(net, {.exploit_determinism = true});
  EXPECT_LT(refined.num_bool_vars(), plain.num_bool_vars());
  EXPECT_LT(refined.cnf().num_clauses(), plain.cnf().num_clauses());

  ModelCounter counter;
  VariableElimination ve(net);
  for (BnVar v = 0; v < net.num_vars(); ++v) {
    for (int x = 0; x < 2; ++x) {
      BnInstantiation e(net.num_vars(), kUnobserved);
      e[v] = x;
      const double expected = ve.ProbEvidence(e);
      EXPECT_NEAR(counter.Wmc(plain.cnf(), plain.WeightsWithEvidence(e)),
                  expected, 1e-10);
      EXPECT_NEAR(counter.Wmc(refined.cnf(), refined.WeightsWithEvidence(e)),
                  expected, 1e-10);
    }
  }
}

TEST(WmcEncodingTest, DeterminismRefinementOnRandomDeterministicNets) {
  // Random nets where half the CPT rows are deterministic.
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(seed + 40);
    BayesianNetwork net;
    BnVar prev = net.AddBinary("x0", {}, {0.5});
    for (int i = 1; i < 5; ++i) {
      double p1 = rng.Flip(0.5) ? (rng.Flip(0.5) ? 0.0 : 1.0) : rng.Uniform();
      double p2 = rng.Flip(0.5) ? (rng.Flip(0.5) ? 0.0 : 1.0) : rng.Uniform();
      prev = net.AddBinary(std::string("x").append(std::to_string(i)), {prev},
                          {p1, p2});
    }
    WmcEncoding refined(net, {.exploit_determinism = true});
    ModelCounter counter;
    VariableElimination ve(net);
    BnInstantiation none(5, kUnobserved);
    for (BnVar v = 0; v < 5; ++v) {
      EXPECT_NEAR(counter.Wmc(refined.cnf(), refined.WeightsWithEvidence(
                                                  [&] {
                                                    BnInstantiation e = none;
                                                    e[v] = 1;
                                                    return e;
                                                  }())),
                  ve.Marginal(v, 1, none), 1e-10)
          << "seed " << seed << " var " << v;
    }
  }
}

TEST(CompiledBayesNetTest, MatchesVariableEliminationOnRandomNets) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    BayesianNetwork net = BayesianNetwork::RandomBinary(6, 2, seed + 20);
    CompiledBayesNet cbn(net);
    VariableElimination ve(net);
    BnInstantiation e(6, kUnobserved);
    e[0] = static_cast<int>(seed % 2);
    EXPECT_NEAR(cbn.ProbEvidence(e), ve.ProbEvidence(e), 1e-10) << seed;
    for (BnVar v = 1; v < 6; ++v) {
      EXPECT_NEAR(cbn.Marginal(v, 1, e), ve.Marginal(v, 1, e), 1e-10)
          << "seed " << seed << " var " << v;
    }
  }
}

TEST(CompiledBayesNetTest, AllMarginalsMatchIndividualMarginals) {
  BayesianNetwork net = MedicalNetwork();
  CompiledBayesNet cbn(net);
  BnInstantiation e(5, kUnobserved);
  e[2] = 1;
  auto all = cbn.AllMarginals(e);
  for (BnVar v = 0; v < 5; ++v) {
    for (int x = 0; x < 2; ++x) {
      if (v == 2) {
        // Evidence variable: marginal concentrates on the observed value.
        EXPECT_NEAR(all[v][x], x == 1 ? cbn.ProbEvidence(e) : 0.0, 1e-10);
      } else {
        EXPECT_NEAR(all[v][x], cbn.Marginal(v, x, e), 1e-10);
      }
    }
  }
}

TEST(CompiledBayesNetTest, MpeMatchesVariableElimination) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    BayesianNetwork net = BayesianNetwork::RandomBinary(6, 2, seed + 50);
    CompiledBayesNet cbn(net);
    VariableElimination ve(net);
    BnInstantiation e(6, kUnobserved);
    e[5] = 1;
    auto mpe = cbn.Mpe(e);
    EXPECT_NEAR(mpe.probability, ve.MpeValue(e), 1e-10) << seed;
    EXPECT_NEAR(net.JointProbability(mpe.instantiation), mpe.probability, 1e-10);
    EXPECT_EQ(mpe.instantiation[5], 1);
  }
}

TEST(CompiledBayesNetTest, MapMatchesVariableElimination) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    BayesianNetwork net = BayesianNetwork::RandomBinary(5, 2, seed + 80);
    CompiledBayesNet cbn(net);
    VariableElimination ve(net);
    const std::vector<BnVar> y = {0, 2};
    BnInstantiation e(5, kUnobserved);
    e[4] = 0;
    auto map = cbn.Map(y, e);
    std::vector<int> ve_argmax;
    EXPECT_NEAR(map.probability, ve.Map(y, e, &ve_argmax), 1e-10) << seed;
    // Verify the returned values achieve the optimum.
    BnInstantiation full = e;
    full[0] = map.values[0];
    full[2] = map.values[1];
    EXPECT_NEAR(ve.ProbEvidence(full), map.probability, 1e-10) << seed;
  }
}

TEST(CompiledBayesNetTest, SdpMatchesVariableElimination) {
  BayesianNetwork net = MedicalNetwork();
  CompiledBayesNet cbn(net);
  VariableElimination ve(net);
  BnInstantiation e(5, kUnobserved);
  const std::vector<BnVar> tests = {2, 3};  // T1, T2
  const double t = 0.9;
  EXPECT_NEAR(cbn.Sdp(1, 1, t, tests, e), ve.Sdp(1, 1, t, tests, e), 1e-10);
  // SDP is a probability.
  const double sdp = cbn.Sdp(1, 1, t, tests, e);
  EXPECT_GE(sdp, 0.0);
  EXPECT_LE(sdp, 1.0 + 1e-12);
}

TEST(BayesianNetworkTest, ForwardSamplingMatchesDistribution) {
  BayesianNetwork net = ChainNetwork();
  Rng rng(17);
  std::vector<double> freq(8, 0.0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const BnInstantiation x = net.Sample(rng);
    freq[static_cast<size_t>(x[0] * 4 + x[1] * 2 + x[2])] += 1.0 / n;
  }
  for (uint64_t i = 0; i < 8; ++i) {
    const BnInstantiation inst = net.InstantiationAt(i);
    const size_t idx = static_cast<size_t>(inst[0] * 4 + inst[1] * 2 + inst[2]);
    EXPECT_NEAR(freq[idx], net.JointProbability(inst), 0.01) << i;
  }
}

TEST(CompiledBayesNetTest, MultiValuedNetworkMatchesVe) {
  // Ternary weather -> binary mood -> ternary activity: exercises the
  // one-hot indicator encoding beyond binary variables.
  BayesianNetwork net;
  const BnVar w = net.AddVariable("weather", 3, {}, {0.5, 0.3, 0.2});
  const BnVar m = net.AddVariable("mood", 2, {w}, {0.9, 0.1, 0.5, 0.5, 0.2, 0.8});
  net.AddVariable("activity", 3, {m},
                  {0.6, 0.3, 0.1, 0.1, 0.4, 0.5});
  CompiledBayesNet cbn(net);
  VariableElimination ve(net);
  BnInstantiation none(3, kUnobserved);
  EXPECT_NEAR(cbn.ProbEvidence(none), 1.0, 1e-10);
  for (BnVar v = 0; v < 3; ++v) {
    for (int x = 0; x < static_cast<int>(net.cardinality(v)); ++x) {
      EXPECT_NEAR(cbn.Marginal(v, x, none), ve.Marginal(v, x, none), 1e-10)
          << "var " << v << " value " << x;
    }
  }
  // Evidence on the middle variable.
  BnInstantiation e(3, kUnobserved);
  e[m] = 1;
  EXPECT_NEAR(cbn.ProbEvidence(e), ve.ProbEvidence(e), 1e-10);
  auto mpe = cbn.Mpe(e);
  EXPECT_NEAR(mpe.probability, ve.MpeValue(e), 1e-10);
  EXPECT_EQ(mpe.instantiation[m], 1);
}

TEST(CompiledBayesNetTest, MedicalNetworkSanity) {
  BayesianNetwork net = MedicalNetwork();
  CompiledBayesNet cbn(net);
  BnInstantiation none(5, kUnobserved);
  EXPECT_NEAR(cbn.ProbEvidence(none), 1.0, 1e-10);
  EXPECT_GT(cbn.CircuitSize(), 0u);
  // Positive tests raise the posterior of the condition.
  BnInstantiation both(5, kUnobserved);
  both[2] = 1;
  both[3] = 1;
  EXPECT_GT(cbn.Posterior(1, 1, both), cbn.Posterior(1, 1, none));
}

}  // namespace
}  // namespace tbc
