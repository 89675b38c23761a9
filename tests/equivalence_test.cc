// Cross-engine property suite (parameterized): every compilation pipeline
// in the library must agree with every other — and with brute force — on
// satisfiability, model count, WMC and per-instance evaluation, for every
// vtree/order. This is the library's strongest integration invariant: the
// paper's Fig 12 taxonomy describes many circuit languages for the SAME
// Boolean function.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "analysis/diagnostics.h"
#include "analysis/nnf_analyzer.h"
#include "analysis/obdd_analyzer.h"
#include "analysis/sdd_analyzer.h"
#include "base/random.h"
#include "compiler/ddnnf_compiler.h"
#include "compiler/model_counter.h"
#include "nnf/queries.h"
#include "nnf_oracle.h"
#include "obdd/obdd.h"
#include "obdd/ordering.h"
#include "sdd/compile.h"
#include "sdd/from_obdd.h"
#include "sdd/sdd.h"
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

// Parameter: (seed, num_vars, clause_factor_x10).
using EngineParam = std::tuple<uint64_t, size_t, size_t>;

class CrossEngineTest : public ::testing::TestWithParam<EngineParam> {
 protected:
  Cnf MakeCnf() const {
    const auto [seed, n, factor10] = GetParam();
    return RandomCnf(n, n * factor10 / 10, 3, seed * 7919 + 13);
  }
};

TEST_P(CrossEngineTest, AllEnginesAgreeOnCountsAndSemantics) {
  const Cnf cnf = MakeCnf();
  const size_t n = cnf.num_vars();
  const uint64_t brute = cnf.CountModelsBruteForce();

  // Engine 1: top-down Decision-DNNF compiler.
  NnfManager nnf;
  DdnnfCompiler ddnnf_compiler;
  const NnfId ddnnf = ddnnf_compiler.Compile(cnf, nnf);
  EXPECT_EQ(ModelCount(nnf, ddnnf, n).ToU64(), brute);

  // Engine 2: direct model counter (same search, no trace).
  ModelCounter counter;
  EXPECT_EQ(counter.Count(cnf).ToU64(), brute);

  // Engine 3: OBDD, identity and FORCE orders.
  for (bool use_force : {false, true}) {
    const std::vector<Var> order =
        use_force ? ForceOrder(cnf, 5) : Vtree::IdentityOrder(n);
    ObddManager obdd(order);
    const ObddId f = obdd.CompileCnf(cnf);
    ASSERT_EQ(obdd.ModelCount(f).ToU64(), brute) << "force=" << use_force;
  }

  // Engine 4: SDD over balanced / right-linear / random vtrees.
  Rng vtree_rng(std::get<0>(GetParam()));
  for (int shape = 0; shape < 3; ++shape) {
    Vtree vt = shape == 0   ? Vtree::Balanced(Vtree::IdentityOrder(n))
               : shape == 1 ? Vtree::RightLinear(Vtree::IdentityOrder(n))
                            : Vtree::Random(Vtree::IdentityOrder(n), vtree_rng);
    SddManager sdd(std::move(vt));
    const SddId f = CompileCnf(sdd, cnf);
    ASSERT_EQ(sdd.ModelCount(f).ToU64(), brute) << "shape " << shape;
  }
}

TEST_P(CrossEngineTest, WmcAgreesAcrossEngines) {
  const Cnf cnf = MakeCnf();
  const size_t n = cnf.num_vars();
  WeightMap w(n);
  Rng rng(std::get<0>(GetParam()) + 999);
  for (Var v = 0; v < n; ++v) {
    const double p = 0.1 + 0.8 * rng.Uniform();
    w.Set(Pos(v), p);
    w.Set(Neg(v), 1.0 - p);
  }
  NnfManager nnf;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, nnf);
  const double via_circuit = Wmc(nnf, root, w);

  ModelCounter counter;
  EXPECT_NEAR(counter.Wmc(cnf, w), via_circuit, 1e-10);

  ObddManager obdd(Vtree::IdentityOrder(n));
  EXPECT_NEAR(obdd.Wmc(obdd.CompileCnf(cnf), w), via_circuit, 1e-10);

  SddManager sdd(Vtree::Balanced(Vtree::IdentityOrder(n)));
  EXPECT_NEAR(sdd.Wmc(CompileCnf(sdd, cnf), w), via_circuit, 1e-10);
}

TEST_P(CrossEngineTest, ObddToSddPreservesFunction) {
  const Cnf cnf = MakeCnf();
  const size_t n = cnf.num_vars();
  ObddManager obdd(Vtree::IdentityOrder(n));
  const ObddId f = obdd.CompileCnf(cnf);
  SddManager sdd(Vtree::RightLinear(Vtree::IdentityOrder(n)));
  const SddId g = ObddToSdd(obdd, f, sdd);
  EXPECT_EQ(sdd.ModelCount(g).ToU64(), obdd.ModelCount(f).ToU64());
  // Spot-check semantics.
  Rng rng(std::get<0>(GetParam()) + 5);
  for (int i = 0; i < 32; ++i) {
    Assignment x(n);
    for (Var v = 0; v < n; ++v) x[v] = rng.Flip(0.5);
    ASSERT_EQ(sdd.Evaluate(g, x), obdd.Evaluate(f, x));
  }
}

TEST_P(CrossEngineTest, CompiledCircuitsAreDecomposableAndDeterministic) {
  const Cnf cnf = MakeCnf();
  const size_t n = cnf.num_vars();
  if (n > 12) GTEST_SKIP() << "exhaustive determinism check too large";
  NnfManager nnf;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, nnf);
  EXPECT_EQ(nnf_oracle::RuleIds(nnf, root, NnfDialect::kDnnf),
            std::set<std::string>{});
  EXPECT_TRUE(nnf_oracle::IsDeterministicExhaustive(nnf, root, n));

  SddManager sdd(Vtree::Balanced(Vtree::IdentityOrder(n)));
  NnfManager nnf2;
  const NnfId exported = sdd.ToNnf(CompileCnf(sdd, cnf), nnf2);
  EXPECT_EQ(nnf_oracle::RuleIds(nnf2, exported, NnfDialect::kDnnf),
            std::set<std::string>{});
  EXPECT_TRUE(nnf_oracle::IsDeterministicExhaustive(nnf2, exported, n));
}

TEST_P(CrossEngineTest, StaticAnalyzerAcceptsEveryEngineArtifact) {
  // The invariant analyzer is an independent checker: whatever the
  // equivalence sweep compiles must also verify clean statically.
  const Cnf cnf = MakeCnf();
  const size_t n = cnf.num_vars();

  NnfManager nnf;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, nnf);
  DiagnosticReport nnf_report;
  NnfAnalysisOptions options;
  options.dialect = NnfDialect::kDecisionDnnf;
  options.expected_num_vars = n;
  AnalyzeNnf(nnf, root, options, nnf_report);
  EXPECT_TRUE(nnf_report.clean()) << nnf_report.ToText("ddnnf");

  ObddManager obdd(Vtree::IdentityOrder(n));
  DiagnosticReport obdd_report;
  AnalyzeObdd(obdd, obdd.CompileCnf(cnf), obdd_report);
  EXPECT_TRUE(obdd_report.empty()) << obdd_report.ToText("obdd");

  SddManager sdd(Vtree::Balanced(Vtree::IdentityOrder(n)));
  const SddId f = CompileCnf(sdd, cnf);
  DiagnosticReport sdd_report;
  AnalyzeSdd(sdd, f, SddAnalysisOptions{}, sdd_report);
  EXPECT_TRUE(sdd_report.empty()) << sdd_report.ToText("sdd");
}

INSTANTIATE_TEST_SUITE_P(
    RandomCnfSweep, CrossEngineTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),   // seeds
                       ::testing::Values(8, 11, 14),          // num_vars
                       ::testing::Values(20, 35, 42)),        // clauses = f/10 * n
    [](const ::testing::TestParamInfo<EngineParam>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_f" +
             std::to_string(std::get<2>(info.param));
    });

// OBDD counting and WMC are level-gap passes over the manager's nodes.
// Over 200 seeded CNFs on shuffled orders, so that OBDD edges skip levels
// and some variables occur in no clause, its counts and WMCs match the
// DPLL counter, and a root re-queried after other roots were counted
// answers bit for bit as it did before.
TEST(ObddCountTest, MatchesTheCounterOnShuffledOrders) {
  ModelCounter counter;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed * 104729 + 3);
    const size_t n = 4 + rng.Below(9);
    const Cnf cnf = RandomCnf(n, n / 2 + rng.Below(2 * n), 3, seed + 900);
    std::vector<Var> order = Vtree::IdentityOrder(n);
    for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.Below(i)]);
    WeightMap w(n);
    for (Var v = 0; v < n; ++v) {
      w.Set(Pos(v), rng.Uniform());
      w.Set(Neg(v), 2.0 * rng.Uniform());
    }
    ObddManager obdd(order);
    const ObddId f = obdd.CompileCnf(cnf);
    const BigUint count = obdd.ModelCount(f);
    const double wmc = obdd.Wmc(f, w);
    ASSERT_EQ(count, counter.Count(cnf)) << "seed " << seed;
    const double want = counter.Wmc(cnf, w);
    ASSERT_NEAR(wmc, want, 1e-12 * want) << "seed " << seed;

    const ObddId g = obdd.Not(f);
    EXPECT_EQ(obdd.ModelCount(g) + count, BigUint::PowerOfTwo(n));
    obdd.Wmc(obdd.Restrict(f, order[0], true), w);
    obdd.Wmc(obdd.Or(g, obdd.LiteralNode(Pos(order[n - 1]))), w);
    EXPECT_EQ(obdd.ModelCount(f), count) << "seed " << seed;
    EXPECT_EQ(obdd.Wmc(f, w), wmc) << "seed " << seed;
  }
}

}  // namespace
}  // namespace tbc
