// Bayesian-network text IO, BN-classifier compilation, and Graphviz DOT
// exports.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "base/random.h"
#include "bayes/io.h"
#include "bayes/network.h"
#include "bayes/varelim.h"
#include "core/dot.h"
#include "sdd/compile.h"
#include "sdd/from_obdd.h"
#include "small_stack.h"
#include "vtree/vtree.h"
#include "xai/bn_classifier.h"

namespace tbc {
namespace {

BayesianNetwork MedicalNetwork() {
  BayesianNetwork net;
  BnVar sex = net.AddBinary("sex", {}, {0.55});
  BnVar c = net.AddBinary("c", {sex}, {0.05, 0.15});
  BnVar t1 = net.AddBinary("T1", {c}, {0.10, 0.85});
  BnVar t2 = net.AddBinary("T2", {c}, {0.20, 0.75});
  net.AddBinary("AGREE", {t1, t2}, {0.95, 0.05, 0.05, 0.95});
  return net;
}

TEST(BayesIoTest, RoundTripBinaryNetwork) {
  BayesianNetwork net = MedicalNetwork();
  auto parsed = ParseNetwork(WriteNetwork(net));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const BayesianNetwork& copy = parsed.value();
  ASSERT_EQ(copy.num_vars(), net.num_vars());
  for (BnVar v = 0; v < net.num_vars(); ++v) {
    EXPECT_EQ(copy.name(v), net.name(v));
    EXPECT_EQ(copy.parents(v), net.parents(v));
  }
  for (uint64_t i = 0; i < net.NumInstantiations(); ++i) {
    const BnInstantiation inst = net.InstantiationAt(i);
    ASSERT_NEAR(copy.JointProbability(inst), net.JointProbability(inst), 1e-15);
  }
}

TEST(BayesIoTest, RoundTripMultiValued) {
  BayesianNetwork net;
  BnVar w = net.AddVariable("w", 3, {}, {0.5, 0.3, 0.2});
  net.AddVariable("m", 2, {w}, {0.9, 0.1, 0.5, 0.5, 0.2, 0.8});
  auto parsed = ParseNetwork(WriteNetwork(net));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().cardinality(0), 3u);
  EXPECT_NEAR(parsed.value().JointProbability({2, 1}), 0.16, 1e-12);
}

TEST(BayesIoTest, ParseErrors) {
  EXPECT_FALSE(ParseNetwork("").ok());
  EXPECT_FALSE(ParseNetwork("var a 2 0\ncpt 0 0.5 0.5\n").ok());  // no header
  EXPECT_FALSE(ParseNetwork("net 1\nvar a 2 0\n").ok());          // no cpt
  EXPECT_FALSE(ParseNetwork("net 1\nvar a 2 0\ncpt 0 0.9 0.2\n").ok());
  EXPECT_FALSE(ParseNetwork("net 1\nvar a 2 1 5\ncpt 0 0.5 0.5\n").ok());
  EXPECT_FALSE(ParseNetwork("net 1\nzzz\n").ok());
  // Comments allowed.
  EXPECT_TRUE(ParseNetwork("# hi\nnet 1\nvar a 2 0\ncpt 0 0.4 0.6\n").ok());
}

TEST(BnClassifierTest, CompilationMatchesThresholdDecision) {
  BayesianNetwork net = MedicalNetwork();
  // Classify the condition from the three observables (non-naive
  // structure: AGREE depends on T1 and T2).
  BnClassifier classifier(net, net.VarByName("c"),
                          {net.VarByName("T1"), net.VarByName("T2"),
                           net.VarByName("AGREE")},
                          0.3);
  ObddManager mgr(Vtree::IdentityOrder(3));
  const ObddId f = classifier.CompileToObdd(mgr);
  for (int bits = 0; bits < 8; ++bits) {
    Assignment e = {(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
    ASSERT_EQ(mgr.Evaluate(f, e), classifier.Classify(e)) << bits;
  }
  // Positive tests push the posterior up.
  EXPECT_GT(classifier.Posterior({true, true, true}),
            classifier.Posterior({false, false, true}));
}

TEST(BnClassifierTest, ThresholdSweepChangesDecisionFunction) {
  BayesianNetwork net = MedicalNetwork();
  const std::vector<BnVar> features = {net.VarByName("T1"), net.VarByName("T2")};
  ObddManager mgr(Vtree::IdentityOrder(2));
  BnClassifier lenient(net, 1, features, 0.05);
  BnClassifier strict(net, 1, features, 0.95);
  const ObddId f_lenient = lenient.CompileToObdd(mgr);
  const ObddId f_strict = strict.CompileToObdd(mgr);
  // Monotone in the threshold: strict ⊆ lenient.
  EXPECT_EQ(mgr.Implies(f_strict, f_lenient), mgr.True());
  EXPECT_NE(f_strict, f_lenient);
}

TEST(DotTest, ExportsAreWellFormed) {
  // Smoke tests: every export produces a digraph mentioning its parts.
  Vtree vt = Vtree::Balanced({0, 1, 2, 3});
  const std::string vdot = DotVtree(vt, {"A", "B", "C", "D"});
  EXPECT_NE(vdot.find("digraph vtree"), std::string::npos);
  EXPECT_NE(vdot.find("\"A\""), std::string::npos);

  ObddManager obdd(Vtree::IdentityOrder(2));
  const ObddId f = obdd.And(obdd.LiteralNode(Pos(0)), obdd.LiteralNode(Neg(1)));
  const std::string odot = DotObdd(obdd, f);
  EXPECT_NE(odot.find("digraph obdd"), std::string::npos);
  EXPECT_NE(odot.find("style=dashed"), std::string::npos);
  EXPECT_NE(odot.find("style=solid"), std::string::npos);

  SddManager sdd(Vtree::Balanced({0, 1, 2, 3}));
  Cnf cnf(4);
  cnf.AddClauseDimacs({1, 2});
  cnf.AddClauseDimacs({-3, 4});
  const SddId g = CompileCnf(sdd, cnf);
  const std::string sdot = DotSdd(sdd, g);
  EXPECT_NE(sdot.find("digraph sdd"), std::string::npos);
  EXPECT_NE(sdot.find("shape=record"), std::string::npos);

  NnfManager nnf;
  const NnfId root = nnf.Decision(0, nnf.Literal(Pos(1)), nnf.Literal(Neg(1)));
  const std::string ndot = DotNnf(nnf, root);
  EXPECT_NE(ndot.find("digraph nnf"), std::string::npos);
  EXPECT_NE(ndot.find("\"and\""), std::string::npos);
  EXPECT_NE(ndot.find("\"or\""), std::string::npos);
}

// DotSdd declares one record per decision node and every edge ends at one
// of them, also after in-place vtree edits (children are named by the
// Resolve()d ids the walk visits).
TEST(DotTest, SddEdgesEndAtRecordsAfterInPlaceEdits) {
  constexpr Var kVars = 8;
  Cnf cnf(kVars);
  Rng rng(3);
  for (int i = 0; i < 18; ++i) {
    Clause clause;
    for (Var v = 0; v < kVars; ++v) {
      if (clause.size() < 3 && rng.Below(kVars - v) < 3 - clause.size()) {
        clause.push_back(Lit(v, rng.Flip(0.5)));
      }
    }
    cnf.AddClause(clause);
  }
  SddManager sdd(Vtree::Balanced(Vtree::IdentityOrder(kVars)));
  SddId f = CompileCnf(sdd, cnf);
  size_t edits = 0;
  for (VtreeId v = 0; v < sdd.vtree().num_nodes(); ++v) {
    if (!sdd.RotateRightInPlace(v).applied &&
        !sdd.SwapChildrenInPlace(v).applied) {
      continue;
    }
    ++edits;
    f = sdd.Resolve(f);
    const std::string dot = DotSdd(sdd, f);
    std::set<std::string> records;
    std::set<std::string> targets;
    for (size_t at = dot.find("\n  n"); at != std::string::npos;
         at = dot.find("\n  n", at + 1)) {
      const size_t begin = at + 4;
      const size_t end = dot.find_first_of(" :", begin);
      if (dot.compare(end, 8, " [label=") == 0) {
        records.insert(dot.substr(begin, end - begin));
      }
      const size_t arrow = dot.find(" -> n", begin);
      if (arrow < dot.find('\n', begin)) {
        targets.insert(dot.substr(arrow + 5, dot.find(';', arrow) - arrow - 5));
      }
    }
    EXPECT_EQ(records.size(), sdd.NumDecisionNodes(f));
    EXPECT_FALSE(targets.empty());
    for (const std::string& t : targets) EXPECT_EQ(records.count(t), 1u) << t;
  }
  EXPECT_GT(edits, 0u);
}

TEST(DotTest, ConstantObdd) {
  ObddManager obdd(Vtree::IdentityOrder(1));
  const std::string dot = DotObdd(obdd, obdd.True());
  EXPECT_NE(dot.find("t1"), std::string::npos);
}

// The number of edges in a DOT graph.
size_t DotEdges(const std::string& dot) {
  size_t n = 0;
  for (size_t at = dot.find(" -> "); at != std::string::npos;
       at = dot.find(" -> ", at + 1)) {
    ++n;
  }
  return n;
}

// DOT exports are loops over the diagrams' reachable walks, so the export
// of a 10,000-deep OBDD, and of its SDD, fits a 1 MB stack.
TEST(DotTest, DeepObddExportsOnOneMegabyteStack) {
  constexpr size_t kVars = 10000;
  ObddManager obdd(Vtree::IdentityOrder(kVars));
  const ObddId f = DeepObddChain(obdd);
  std::string dot;
  RunOnSmallStack([&] { dot = DotObdd(obdd, f); });
  EXPECT_EQ(DotEdges(dot), 2 * kVars);
}

TEST(DotTest, DeepSddExportsOnOneMegabyteStack) {
  constexpr size_t kVars = 10000;
  ObddManager obdd(Vtree::IdentityOrder(kVars));
  SddManager sdd(Vtree::RightLinear(Vtree::IdentityOrder(kVars)));
  const SddId g = ObddToSdd(obdd, DeepObddChain(obdd), sdd);
  std::string dot;
  RunOnSmallStack([&] { dot = DotSdd(sdd, g); });
  // Each decision but the last has one decision sub.
  EXPECT_EQ(DotEdges(dot), kVars - 2);
}

}  // namespace
}  // namespace tbc
