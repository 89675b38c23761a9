#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "base/observability.h"
#include "base/random.h"
#include "bayes/network.h"
#include "bayes/wmc_encoding.h"
#include "compiler/ddnnf_compiler.h"
#include "compiler/model_counter.h"
#include "compiler/subproblem.h"
#include "analysis/nnf_analyzer.h"
#include "dpll_oracle.h"
#include "nnf/queries.h"
#include "nnf_oracle.h"
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

TEST(DdnnfCompilerTest, TrivialInputs) {
  NnfManager m;
  DdnnfCompiler compiler;
  Cnf empty(3);
  EXPECT_EQ(compiler.Compile(empty, m), m.True());
  Cnf contradiction(2);
  contradiction.AddClauseDimacs({1});
  contradiction.AddClauseDimacs({-1});
  EXPECT_EQ(compiler.Compile(contradiction, m), m.False());
  Cnf unit(2);
  unit.AddClauseDimacs({-2});
  NnfId f = compiler.Compile(unit, m);
  EXPECT_EQ(f, m.Literal(Neg(1)));
}

TEST(DdnnfCompilerTest, OutputIsDecisionDnnf) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Cnf cnf = RandomCnf(10, 26, 3, seed);
    NnfManager m;
    DdnnfCompiler compiler;
    NnfId root = compiler.Compile(cnf, m);
    EXPECT_EQ(nnf_oracle::RuleIds(m, root, NnfDialect::kDnnf),
              std::set<std::string>{})
        << "seed " << seed;
    EXPECT_TRUE(nnf_oracle::IsDeterministicExhaustive(m, root, 10))
        << "seed " << seed;
  }
}

TEST(DdnnfCompilerTest, CountsMatchBruteForce) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Cnf cnf = RandomCnf(11, 30, 3, seed + 300);
    NnfManager m;
    DdnnfCompiler compiler;
    NnfId root = compiler.Compile(cnf, m);
    EXPECT_EQ(ModelCount(m, root, 11).ToU64(), cnf.CountModelsBruteForce())
        << "seed " << seed;
  }
}

TEST(DdnnfCompilerTest, EquivalentToInputFormula) {
  Cnf cnf = RandomCnf(9, 20, 3, 17);
  NnfManager m;
  DdnnfCompiler compiler;
  NnfId root = compiler.Compile(cnf, m);
  for (int bits = 0; bits < (1 << 9); ++bits) {
    Assignment a(9);
    for (Var v = 0; v < 9; ++v) a[v] = (bits >> v) & 1;
    ASSERT_EQ(m.Evaluate(root, a), cnf.Evaluate(a));
  }
}

TEST(DdnnfCompilerTest, AblationsPreserveCorrectness) {
  for (uint64_t seed = 40; seed < 48; ++seed) {
    Cnf cnf = RandomCnf(10, 24, 3, seed);
    const uint64_t expected = cnf.CountModelsBruteForce();
    for (bool comps : {false, true}) {
      for (bool cache : {false, true}) {
        NnfManager m;
        DdnnfCompiler compiler({.use_components = comps, .use_cache = cache});
        NnfId root = compiler.Compile(cnf, m);
        ASSERT_EQ(ModelCount(m, root, 10).ToU64(), expected)
            << "seed " << seed << " comps " << comps << " cache " << cache;
      }
    }
  }
}

TEST(DdnnfCompilerTest, ComponentsAndCacheReduceWork) {
  // Two independent subformulas: decomposition should fire, and caching
  // should hit on repeated components.
  Cnf cnf(16);
  Rng rng(3);
  for (int half = 0; half < 2; ++half) {
    for (int i = 0; i < 18; ++i) {
      std::set<Var> vars;
      while (vars.size() < 3) {
        vars.insert(static_cast<Var>(8 * half + rng.Below(8)));
      }
      Clause c;
      for (Var v : vars) c.push_back(Lit(v, rng.Flip(0.5)));
      cnf.AddClause(c);
    }
  }
  NnfManager m1, m2;
  DdnnfCompiler with({.use_components = true, .use_cache = true});
  DdnnfCompiler without({.use_components = false, .use_cache = false});
  NnfId r1 = with.Compile(cnf, m1);
  NnfId r2 = without.Compile(cnf, m2);
  EXPECT_EQ(ModelCount(m1, r1, 16), ModelCount(m2, r2, 16));
  EXPECT_GT(with.stats().components_split, 0u);
  EXPECT_LE(with.stats().decisions, without.stats().decisions);
}

TEST(ModelCounterTest, MatchesBruteForce) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Cnf cnf = RandomCnf(12, 34, 3, seed + 900);
    ModelCounter counter;
    EXPECT_EQ(counter.Count(cnf).ToU64(), cnf.CountModelsBruteForce())
        << "seed " << seed;
  }
}

TEST(ModelCounterTest, CompiledCountBeyond64BitsMatchesCounter) {
  // 120 variables under 40 random 3-clauses: about 2^112 models, so the
  // circuit's count runs through multi-limb sums and products.
  const Cnf cnf = RandomCnf(120, 40, 3, 9);
  NnfManager m;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, m);
  const BigUint count = ModelCount(m, root, cnf.num_vars());
  EXPECT_FALSE(count.FitsU64());
  EXPECT_GT(count, BigUint::PowerOfTwo(100));
  ModelCounter counter;
  EXPECT_EQ(count, counter.Count(cnf));
}

// The compiled count where BigUint moves from its inline word to limbs,
// against the counter. A 64-variable clause counts 2^64 - 1, which stays
// inline. A 65-variable clause crosses inside the pass (its first
// decision's literal input misses 64 variables: 1·2^64). Three hand-built
// d-DNNFs reach exactly 2^64 one way each: an or-edge shift 2·2^63, a sum
// 2^63 + 2^63 and a product of 64 factors 2; a fourth shifts a product of
// 2^64 by 64.
TEST(ModelCounterTest, CompiledCountAtThe64BitBoundary) {
  ModelCounter counter;
  for (const size_t n : {64, 65}) {
    Cnf cnf(n);
    Clause wide;
    for (Var v = 0; v < n; ++v) wide.push_back(Pos(v));
    cnf.AddClause(wide);
    NnfManager m;
    DdnnfCompiler compiler;
    const NnfId root = compiler.Compile(cnf, m);
    const BigUint want = BigUint::PowerOfTwo(static_cast<unsigned>(n)) - 1;
    EXPECT_EQ(ModelCount(m, root, n), want) << n << " variables";
    EXPECT_EQ(counter.Count(cnf), want) << n << " variables";
  }

  // Variables x0..x62, y = x63, z = x64; t(v) is the tautology v ∨ ¬v.
  const Var y = 63, z = 64;
  NnfManager m;
  auto t = [&](Var v) { return m.Or(m.Literal(Pos(v)), m.Literal(Neg(v))); };
  std::vector<NnfId> xs, ts;
  for (Var v = 0; v < 63; ++v) {
    xs.push_back(m.Literal(Pos(v)));
    ts.push_back(t(v));
  }
  // z → (y ∧ x0 ∧ … ∧ x62) as (z ∧ y ∧ x0 ∧ … ∧ x62) ∨ (¬z ∧ t(y)): the
  // second input counts 2 and misses x0..x62, so its edge adds 2·2^63.
  Cnf implication(65);
  implication.AddClause({Neg(z), Pos(y)});
  for (Var v = 0; v < 63; ++v) implication.AddClause({Neg(z), Pos(v)});
  std::vector<NnfId> conj = xs;
  conj.push_back(m.Literal(Pos(y)));
  conj.push_back(m.Literal(Pos(z)));
  const NnfId shifted = m.Or(m.And(conj), m.And(m.Literal(Neg(z)), t(y)));
  EXPECT_EQ(ModelCount(m, shifted, 65), BigUint::PowerOfTwo(64) + 1);
  EXPECT_EQ(counter.Count(implication), BigUint::PowerOfTwo(64) + 1);
  // (y ∧ t(x0) ∧ … ∧ t(x62)) ∨ (¬y ∧ t(x0) ∧ … ∧ t(x62)): 2^63 + 2^63.
  std::vector<NnfId> pos = ts, neg = ts;
  pos.push_back(m.Literal(Pos(y)));
  neg.push_back(m.Literal(Neg(y)));
  const NnfId sum = m.Or(m.And(pos), m.And(neg));
  // t(x0) ∧ … ∧ t(x62) ∧ t(y): 64 factors 2.
  std::vector<NnfId> all = ts;
  all.push_back(t(y));
  const NnfId product = m.And(all);
  const Cnf free64(64);
  EXPECT_EQ(counter.Count(free64), BigUint::PowerOfTwo(64));
  EXPECT_EQ(ModelCount(m, sum, 64), BigUint::PowerOfTwo(64));
  EXPECT_EQ(ModelCount(m, product, 64), BigUint::PowerOfTwo(64));

  // Variables a0..a63 = x0..x63, b0..b63 = x64..x127, c = x128:
  // (c ∧ t(a0) ∧ … ∧ t(a63)) ∨ (¬c ∧ b0 ∧ … ∧ b63). The first input's 64
  // factors 2 make 2^64, which a 64-bit word would wrap to 0, and its edge
  // then misses all 64 b's: a shift by 64 of a value past one word.
  NnfManager wide;
  const Var c = 128;
  Cnf guarded(129);
  std::vector<NnfId> as, bs;
  for (Var v = 0; v < 64; ++v) {
    as.push_back(wide.Or(wide.Literal(Pos(v)), wide.Literal(Neg(v))));
    bs.push_back(wide.Literal(Pos(64 + v)));
    guarded.AddClause({Pos(c), Pos(64 + v)});
  }
  as.push_back(wide.Literal(Pos(c)));
  bs.push_back(wide.Literal(Neg(c)));
  const NnfId wrapped = wide.Or(wide.And(as), wide.And(bs));
  const BigUint want = BigUint::PowerOfTwo(128) + BigUint::PowerOfTwo(64);
  EXPECT_EQ(ModelCount(wide, wrapped, 129), want);
  EXPECT_EQ(counter.Count(guarded), want);
}

TEST(ModelCounterTest, FreeVariablesAndEmptyCnf) {
  Cnf cnf(5);
  cnf.AddClauseDimacs({1, 2});
  ModelCounter counter;
  EXPECT_EQ(counter.Count(cnf), BigUint(3 * 8));
  Cnf empty(20);
  EXPECT_EQ(counter.Count(empty), BigUint::PowerOfTwo(20));
}

TEST(ModelCounterTest, LargeStructuredInstance) {
  // Chain of implications x0 -> x1 -> ... -> x39: models are the 41
  // monotone step patterns... for implications models = prefixes of 0s then
  // 1s? x_i -> x_{i+1}: models are exactly the up-sets: 41 models.
  Cnf cnf(40);
  for (int i = 0; i < 39; ++i) cnf.AddClauseDimacs({-(i + 1), i + 2});
  ModelCounter counter;
  EXPECT_EQ(counter.Count(cnf), BigUint(41));
}

TEST(ModelCounterTest, WmcMatchesBruteForce) {
  for (uint64_t seed = 0; seed < 15; ++seed) {
    Cnf cnf = RandomCnf(9, 20, 3, seed + 100);
    WeightMap w(9);
    Rng rng(seed);
    for (Var v = 0; v < 9; ++v) {
      double p = rng.Uniform();
      w.Set(Pos(v), p);
      w.Set(Neg(v), 1.0 - p);
    }
    double brute = 0.0;
    for (int bits = 0; bits < (1 << 9); ++bits) {
      Assignment a(9);
      for (Var v = 0; v < 9; ++v) a[v] = (bits >> v) & 1;
      if (!cnf.Evaluate(a)) continue;
      double term = 1.0;
      for (Var v = 0; v < 9; ++v) term *= w[Lit(v, a[v])];
      brute += term;
    }
    ModelCounter counter;
    EXPECT_NEAR(counter.Wmc(cnf, w), brute, 1e-10) << "seed " << seed;
  }
}

TEST(ModelCounterTest, WmcWithUnitWeightsEqualsCount) {
  Cnf cnf = RandomCnf(10, 25, 3, 555);
  ModelCounter counter;
  WeightMap w(10);
  EXPECT_NEAR(counter.Wmc(cnf, w), counter.Count(cnf).ToDouble(), 1e-6);
}

TEST(ModelCounterTest, WmcSurvivesDeepUnderflow) {
  // Regression for the log-space rework (ISSUE 4 headline bug): 2000
  // variables. 1000 unit clauses of weight 1e-3 drive the running product
  // to ~1e-3000 — thousands of orders below DBL_MIN — before 500 two-var
  // components (value 3e6 each) bring the final count back to
  // 3^500 ~ 3.6e238, comfortably representable. The historical
  // plain-double accumulator flushed the intermediate to 0.0 and returned
  // an exact, silent 0.0.
  constexpr size_t kUnits = 1000;
  constexpr size_t kComps = 500;
  Cnf cnf(kUnits + 2 * kComps);
  WeightMap w(kUnits + 2 * kComps);
  for (Var v = 0; v < kUnits; ++v) {
    cnf.AddClauseDimacs({static_cast<int>(v) + 1});
    w.Set(Pos(v), 1e-3);
  }
  for (size_t i = 0; i < kComps; ++i) {
    const Var a = static_cast<Var>(kUnits + 2 * i);
    const Var b = a + 1;
    cnf.AddClause({Pos(a), Pos(b)});
    for (Var v : {a, b}) {
      w.Set(Pos(v), 1e3);
      w.Set(Neg(v), 1e3);
    }
  }
  // What the naive accumulator saw: the unit-chain product alone is not
  // representable.
  double naive = 1.0;
  for (size_t i = 0; i < kUnits; ++i) naive *= 1e-3;
  ASSERT_EQ(naive, 0.0);

  Observability::Global().Reset();
  ModelCounter counter;
  const double wmc = counter.Wmc(cnf, w);
  // Per component (a v b): 1e3*1e3 * 3 satisfying assignments = 3e6, and
  // (1e-3)^1000 * (3e6)^500 = 3^500 exactly.
  const double expected = std::pow(3.0, 500.0);
  EXPECT_GT(wmc, 0.0);
  EXPECT_NEAR(wmc, expected, expected * 1e-9);
  EXPECT_GE(counter.stats().underflow_rescues, 1u);
  // The rescue is also surfaced through the observability registry.
  EXPECT_GE(Observability::Global().CounterValue("counter.wmc.rescues"), 1u);
}

TEST(ModelCounterTest, WmcUnrepresentableResultSaturates) {
  // 200 free variables each contributing (0.01 + 0.01): the true WMC is
  // 0.02^200 ~ 1.6e-340, below even the subnormal range. The public double
  // API can only saturate to 0.0 — but it must count the rescue so callers
  // can tell "saturated" from "genuinely zero".
  constexpr size_t kVars = 200;
  Cnf cnf(kVars);
  WeightMap w(kVars);
  for (Var v = 0; v < kVars; ++v) {
    w.Set(Pos(v), 0.01);
    w.Set(Neg(v), 0.01);
  }
  ModelCounter counter;
  EXPECT_EQ(counter.Wmc(cnf, w), 0.0);
  EXPECT_GE(counter.stats().underflow_rescues, 1u);
}

Cnf MakeCnf(size_t num_vars, const std::vector<std::vector<Lit>>& clauses) {
  Cnf cnf(num_vars);
  for (const auto& c : clauses) cnf.AddClause(c);
  return cnf;
}

TEST(SubproblemTest, ClauseDbSortsClausesAndListsOccurrences) {
  const Cnf cnf = MakeCnf(4, {{Neg(2), Pos(0)},
                              {Pos(3)},
                              {Pos(2), Neg(0), Pos(1)},
                              {},
                              {Pos(0), Pos(3)}});
  compiler_internal::ClauseDb db;
  db.Load(cnf);
  ASSERT_EQ(db.num_clauses(), 5u);
  EXPECT_EQ(std::vector<Lit>(db.clause(0).begin(), db.clause(0).end()),
            (std::vector<Lit>{Pos(0), Neg(2)}));
  EXPECT_EQ(std::vector<Lit>(db.clause(2).begin(), db.clause(2).end()),
            (std::vector<Lit>{Neg(0), Pos(1), Pos(2)}));
  EXPECT_TRUE(db.clause(3).empty());
  // Binary clauses 0 and 4 are filed once per literal, as the partner
  // that literal's falsification implies, in clause order.
  const auto imp = [&db](Lit l) {
    return std::vector<Lit>(db.implications(l).begin(),
                            db.implications(l).end());
  };
  EXPECT_EQ(imp(Pos(0)), (std::vector<Lit>{Neg(2), Pos(3)}));
  EXPECT_EQ(imp(Neg(2)), (std::vector<Lit>{Pos(0)}));
  EXPECT_EQ(imp(Pos(3)), (std::vector<Lit>{Pos(0)}));
  EXPECT_TRUE(imp(Neg(0)).empty());
  EXPECT_TRUE(imp(Pos(2)).empty());
  EXPECT_TRUE(imp(Pos(1)).empty());
  // The occurrence lists hold the other clauses only.
  const auto occ = [&db](Lit l) {
    return std::vector<uint32_t>(db.occurrences(l).begin(),
                                 db.occurrences(l).end());
  };
  EXPECT_TRUE(occ(Pos(0)).empty());
  EXPECT_TRUE(occ(Neg(2)).empty());
  EXPECT_EQ(occ(Neg(0)), (std::vector<uint32_t>{2}));
  EXPECT_EQ(occ(Pos(1)), (std::vector<uint32_t>{2}));
  EXPECT_EQ(occ(Pos(2)), (std::vector<uint32_t>{2}));
  EXPECT_EQ(occ(Pos(3)), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(occ(Neg(3)).empty());
}

// Random small clause lists over `num_vars` variables: clauses of one to
// four distinct variables, with units, repeated clauses, binary pairs
// (x ∨ y), (x ∨ ¬y) whose implications meet on x, and, on some seeds, a
// literal shared by every clause (so assuming it satisfies them all).
std::vector<std::vector<Lit>> RandomClauses(Rng& rng, size_t num_vars) {
  std::vector<std::vector<Lit>> clauses;
  const size_t m = rng.Below(14);
  const bool hub = rng.Flip(0.2);
  for (size_t i = 0; i < m; ++i) {
    if (!clauses.empty() && rng.Flip(0.15)) {
      clauses.push_back(clauses[rng.Below(clauses.size())]);
      continue;
    }
    if (!hub && num_vars >= 2 && rng.Flip(0.15)) {
      // Falsifying x implies y and ¬y: a conflict in the implication lists.
      const Var x = static_cast<Var>(rng.Below(num_vars));
      const Var y = static_cast<Var>((x + 1 + rng.Below(num_vars - 1)) %
                                     num_vars);
      const Lit lx(x, rng.Flip(0.5));
      clauses.push_back({lx, Pos(y)});
      clauses.push_back({lx, Neg(y)});
      if (rng.Flip(0.5)) clauses.push_back(clauses.back());
      continue;
    }
    std::set<Var> vars;
    if (hub) vars.insert(0);
    const size_t width = 1 + rng.Below(rng.Flip(0.3) ? 1 : 4);
    while (vars.size() < std::min(width, num_vars)) {
      vars.insert(static_cast<Var>(rng.Below(num_vars)));
    }
    std::vector<Lit> c;
    for (const Var v : vars) {
      c.push_back(Lit(v, (v == 0 && hub) || rng.Flip(0.5)));
    }
    clauses.push_back(std::move(c));
  }
  return clauses;
}

TEST(SubproblemTest, TrailPropagatesLikeThePassBasedOracle) {
  // The trail's propagation, which visits only the occurrence lists of
  // falsified literals, must reach the same closure (or conflict) as
  // conditioning by full passes, from the unit clauses and then from each
  // assumed literal; and Undo must restore the assignment exactly.
  constexpr size_t kVars = 6;
  for (uint64_t seed = 0; seed < 1500; ++seed) {
    Rng rng(seed);
    const Cnf cnf = MakeCnf(kVars, RandomClauses(rng, kVars));
    compiler_internal::ClauseDb db;
    db.Load(cnf);
    compiler_internal::Trail trail;
    trail.Reset(db);
    const auto assigned = [&trail] {
      std::vector<Lit> lits;
      for (Var v = 0; v < kVars; ++v) {
        if (trail.Assigned(v)) lits.push_back(trail.TrueLit(v));
      }
      return lits;
    };
    dpll_oracle::ClauseList reference = cnf.clauses();
    std::vector<Lit> implied;
    const bool consistent = trail.AssumeUnits();
    ASSERT_EQ(consistent, dpll_oracle::Propagate(&reference, &implied) ==
                              dpll_oracle::BcpOutcome::kOk)
        << "seed " << seed;
    if (!consistent) continue;
    std::sort(implied.begin(), implied.end());
    ASSERT_EQ(assigned(), implied) << "seed " << seed;
    const std::vector<Lit> units = assigned();
    const size_t mark = trail.size();
    for (Var v = 0; v < kVars; ++v) {
      if (trail.Assigned(v)) continue;
      for (const Lit l : {Pos(v), Neg(v)}) {
        dpll_oracle::ClauseList branch = dpll_oracle::Condition(reference, l);
        std::vector<Lit> expected;
        const bool ok = trail.Assume(l);
        ASSERT_EQ(ok, dpll_oracle::Propagate(&branch, &expected) ==
                          dpll_oracle::BcpOutcome::kOk)
            << "seed " << seed << " lit " << l.ToDimacs();
        if (ok) {
          expected.push_back(l);
          expected.insert(expected.end(), units.begin(), units.end());
          std::sort(expected.begin(), expected.end());
          EXPECT_EQ(assigned(), expected)
              << "seed " << seed << " lit " << l.ToDimacs();
        }
        trail.Undo(mark);
        EXPECT_EQ(assigned(), units) << "seed " << seed;
      }
    }
  }
}

TEST(SubproblemTest, SplitOrdersComponentsBySmallestVariable) {
  // Under x4 = false: clause 0 {x4, x5, x6} shrinks to {x5, x6}; clause 2
  // {¬x4, x1} is satisfied; x3 is in no clause (free). Two groups remain:
  // {x0, x2} over clauses 1 and 4, and {x5, x6} over clauses 0 and 3.
  const Cnf cnf = MakeCnf(
      7, {{Pos(4), Pos(5), Pos(6)}, {Pos(2), Neg(0)}, {Neg(4), Pos(1)},
          {Neg(5), Neg(6)}, {Pos(0), Pos(2)}});
  compiler_internal::ClauseDb db;
  db.Load(cnf);
  compiler_internal::Trail trail;
  trail.Reset(db);
  compiler_internal::ComponentStack stack;
  stack.Reset(db);
  ASSERT_TRUE(trail.AssumeUnits());
  ASSERT_TRUE(trail.Assume(Neg(4)));
  std::span<const Var> rest;
  const auto ids = [](std::span<const Var> r) {
    return std::vector<Var>(r.begin(), r.end());
  };
  const uint32_t first = stack.size();
  ASSERT_EQ(stack.Split(0, trail, true, &rest), 2u);
  // Each sub-component's key is the variable and clause counts, then both
  // id lists in increasing order; its branch variable follows. The counts
  // make the key injective: without them, vars {0, 1} over clause {2} and
  // var {0} over clauses {1, 2} would both read 0 1 2.
  const uint32_t second = stack.End(first);
  EXPECT_EQ(std::vector<uint32_t>(stack.Key(first).begin(),
                                  stack.Key(first).end()),
            (std::vector<uint32_t>{2, 2, 0, 2, 1, 4}));
  EXPECT_EQ(std::vector<uint32_t>(stack.Key(second).begin(),
                                  stack.Key(second).end()),
            (std::vector<uint32_t>{2, 2, 5, 6, 0, 3}));
  EXPECT_EQ(stack.End(second), stack.size());
  // Each branch variable is a most frequent one, the smaller on a tie.
  EXPECT_EQ(stack.BranchVar(first), 0u);
  EXPECT_EQ(stack.BranchVar(second), 5u);
  // The variables no sub-component holds: assigned x4 and free x1, x3.
  EXPECT_EQ(ids(rest), (std::vector<Var>{1, 3, 4}));
  // Without decomposition, one group holds every live clause.
  stack.PopTo(first);
  ASSERT_EQ(stack.Split(0, trail, false, &rest), 1u);
  EXPECT_EQ(std::vector<uint32_t>(stack.Key(first).begin(),
                                  stack.Key(first).end()),
            (std::vector<uint32_t>{4, 4, 0, 2, 5, 6, 0, 1, 3, 4}));
  EXPECT_EQ(ids(rest), (std::vector<Var>{1, 3, 4}));
  // A split of a sub-component reads only its own lists: under x0 the
  // first group's clauses are both satisfied or reduced to units, which
  // propagation already assigned.
  stack.PopTo(first);
  ASSERT_EQ(stack.Split(0, trail, true, &rest), 2u);
  const size_t mark = trail.size();
  ASSERT_TRUE(trail.Assume(Pos(0)));
  EXPECT_TRUE(trail.IsTrue(Pos(2)));
  const uint32_t grandchildren = stack.size();
  EXPECT_EQ(stack.Split(first, trail, true, &rest), 0u);
  EXPECT_EQ(stack.size(), grandchildren);
  EXPECT_EQ(ids(rest), (std::vector<Var>{0, 2}));
  trail.Undo(mark);
}

TEST(SubproblemTest, ComponentCacheVerifiesKeysOnFingerprintCollision) {
  // Three distinct keys forced onto one fingerprint, so they share one
  // probe chain: every lookup must still answer by the full key.
  compiler_internal::ComponentCache<int> cache;
  const std::vector<uint32_t> k1 = {2, 1, 0, 1, 7};
  const std::vector<uint32_t> k2 = {2, 1, 0, 1, 8};
  const std::vector<uint32_t> k3 = {3, 2, 0, 1, 2, 7, 8};
  const std::vector<uint32_t> prefix_of_k3 = {3, 2, 0, 1, 2, 7};
  constexpr uint64_t kSlot = 42;
  cache.Insert(k1, kSlot, 1);
  EXPECT_EQ(cache.Find(k2, kSlot), nullptr);
  cache.Insert(k2, kSlot, 2);
  cache.Insert(k3, kSlot, 3);
  ASSERT_NE(cache.Find(k1, kSlot), nullptr);
  ASSERT_NE(cache.Find(k2, kSlot), nullptr);
  ASSERT_NE(cache.Find(k3, kSlot), nullptr);
  EXPECT_EQ(*cache.Find(k1, kSlot), 1);
  EXPECT_EQ(*cache.Find(k2, kSlot), 2);
  EXPECT_EQ(*cache.Find(k3, kSlot), 3);
  EXPECT_EQ(cache.Find(prefix_of_k3, kSlot), nullptr);
  EXPECT_EQ(cache.Find(std::vector<uint32_t>(), kSlot), nullptr);
  // The fingerprint narrows the probe: a key under another one is absent.
  EXPECT_EQ(cache.Find(k1, kSlot + 1), nullptr);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(SubproblemTest, SplitPicksMostFrequentThenSmallest) {
  // A sub-component's branch variable has the most unassigned occurrences
  // over its live clauses, counting repeated clauses once per id; ties go
  // to the smaller id.
  constexpr size_t kVars = 6;
  for (uint64_t seed = 0; seed < 500; ++seed) {
    Rng rng(seed);
    const Cnf cnf = MakeCnf(kVars, RandomClauses(rng, kVars));
    compiler_internal::ClauseDb db;
    db.Load(cnf);
    compiler_internal::Trail trail;
    trail.Reset(db);
    compiler_internal::ComponentStack stack;
    stack.Reset(db);
    if (!trail.AssumeUnits()) continue;
    const Var assumed = static_cast<Var>(rng.Below(kVars));
    if (!trail.Assigned(assumed) && !trail.Assume(Pos(assumed))) continue;
    std::vector<size_t> count(kVars, 0);
    for (uint32_t c = 0; c < db.num_clauses(); ++c) {
      const auto lits = db.clause(c);
      if (std::any_of(lits.begin(), lits.end(),
                      [&trail](Lit l) { return trail.IsTrue(l); })) {
        continue;
      }
      for (const Lit l : lits) {
        if (!trail.Assigned(l.var())) ++count[l.var()];
      }
    }
    Var expected = kInvalidVar;
    for (Var v = 0; v < kVars; ++v) {
      if (count[v] > 0 &&
          (expected == kInvalidVar || count[v] > count[expected])) {
        expected = v;
      }
    }
    std::span<const Var> rest;
    const uint32_t at = stack.size();
    const uint32_t groups = stack.Split(0, trail, false, &rest);
    ASSERT_EQ(groups, expected == kInvalidVar ? 0u : 1u) << "seed " << seed;
    if (groups == 1) {
      EXPECT_EQ(stack.BranchVar(at), expected) << "seed " << seed;
    }
  }
}

// Differential test CNFs: small random k-CNFs mixed with units, duplicate
// and subsumed clauses, an occasional empty clause or contradictory unit
// pair (UNSAT), over-constrained instances that are UNSAT on their own,
// and, on every fifth seed, an underconstrained 2-CNF that splits into
// many components.
Cnf DifferentialCnf(uint64_t seed) {
  Rng rng(seed);
  const size_t n = 3 + rng.Below(14);
  Cnf cnf(n);
  const bool two_cnf = seed % 5 == 4;
  const size_t m =
      two_cnf ? rng.Below(n) : rng.Below(n * (rng.Flip(0.2) ? 7 : 4));
  std::vector<Clause> added;
  for (size_t i = 0; i < m; ++i) {
    const double r = rng.Uniform();
    Clause c;
    if (!added.empty() && r < 0.08) {
      c = added[rng.Below(added.size())];  // duplicate
    } else if (!added.empty() && r < 0.16) {
      c = added[rng.Below(added.size())];  // subsumed by it
      const Var v = static_cast<Var>(rng.Below(n));
      if (std::none_of(c.begin(), c.end(),
                       [v](Lit l) { return l.var() == v; })) {
        c.push_back(Lit(v, rng.Flip(0.5)));
      }
    } else {
      const size_t k = two_cnf    ? 2
                       : r < 0.24 ? 1
                                  : 1 + rng.Below(std::min<size_t>(n, 4));
      std::set<Var> vars;
      while (vars.size() < k) vars.insert(static_cast<Var>(rng.Below(n)));
      for (const Var v : vars) c.push_back(Lit(v, rng.Flip(0.5)));
    }
    added.push_back(c);
    cnf.AddClause(c);
  }
  if (rng.Flip(0.03)) cnf.AddClause({});
  if (rng.Flip(0.03)) {
    const Var v = static_cast<Var>(rng.Below(n));
    cnf.AddClause({Pos(v)});
    cnf.AddClause({Neg(v)});
  }
  return cnf;
}

WeightMap RandomWeights(size_t n, Rng& rng) {
  WeightMap w(n);
  for (Var v = 0; v < n; ++v) {
    w.Set(Pos(v), 0.05 + rng.Uniform());
    w.Set(Neg(v), 0.05 + rng.Uniform());
  }
  return w;
}

bool Close(double got, double want) {
  return std::abs(got - want) <= 1e-12 * std::max(std::abs(want), 1e-300);
}

TEST(DifferentialTest, TrailSearchMatchesCopyBasedOracle) {
  // The trail-based driver against the copy-based search it replaced, on
  // 3,000 seeded CNFs under all four technique switches: the circuit's
  // count and WMC, and (every technique on) the counters'. Cache on and
  // off must also agree with each other: an unsound component key would
  // serve one component's answer for another, and with the cache off
  // nothing is served.
  size_t unsat = 0;
  size_t split = 0;
  for (uint64_t seed = 0; seed < 3000; ++seed) {
    const Cnf cnf = DifferentialCnf(seed);
    Rng rng(seed + 1'000'000);
    const WeightMap w = RandomWeights(cnf.num_vars(), rng);
    const dpll_oracle::Counts want =
        dpll_oracle::CopyDpll(DdnnfOptions(), w).Run(cnf);
    unsat += want.models == BigUint(0) ? 1 : 0;
    double wmc[4];
    for (int opt = 0; opt < 4; ++opt) {
      const DdnnfOptions options{.use_components = (opt & 2) != 0,
                                 .use_cache = (opt & 1) != 0};
      const dpll_oracle::Counts oracle =
          dpll_oracle::CopyDpll(options, w).Run(cnf);
      ASSERT_EQ(oracle.models, want.models) << "seed " << seed;
      NnfManager m;
      DdnnfCompiler compiler(options);
      const NnfId root = compiler.Compile(cnf, m);
      ASSERT_EQ(ModelCount(m, root, cnf.num_vars()), want.models)
          << "seed " << seed << " options " << opt;
      wmc[opt] = Wmc(m, root, w);
      ASSERT_TRUE(Close(wmc[opt], oracle.wmc))
          << "seed " << seed << " options " << opt << ": " << wmc[opt]
          << " vs " << oracle.wmc;
      if (opt % 2 == 1) {
        ASSERT_TRUE(Close(wmc[opt], wmc[opt - 1]))
            << "seed " << seed << ": cache on and off disagree";
      }
      if (opt == 3) split += compiler.stats().components_split > 1 ? 1 : 0;
    }
    ModelCounter counter;
    ASSERT_EQ(counter.Count(cnf), want.models) << "seed " << seed;
    ASSERT_TRUE(Close(counter.Wmc(cnf, w), want.wmc)) << "seed " << seed;
  }
  // The mix really covers both ends.
  EXPECT_GT(unsat, 100u);
  EXPECT_GT(split, 50u);
}

TEST(DepthTest, WideClauseCompilesOnOneMegabyteStack) {
  // One clause over 5,000 variables: the search decides it 5,000 deep.
  // The decision stack lives on the heap, so a 1 MB thread stack is
  // enough for both the compiler and the counter.
  constexpr size_t kVars = 5000;
  Cnf cnf(kVars);
  Clause wide;
  for (Var v = 0; v < kVars; ++v) wide.push_back(Pos(v));
  cnf.AddClause(wide);
  BigUint circuit_count;
  BigUint counter_count;
  uint64_t decisions = 0;
  RunOnSmallStack([&] {
    NnfManager m;
    DdnnfCompiler compiler;
    const NnfId root = compiler.Compile(cnf, m);
    decisions = compiler.stats().decisions;
    circuit_count = ModelCount(m, root, cnf.num_vars());
    counter_count = ModelCounter().Count(cnf);
  });
  const BigUint expected = BigUint::PowerOfTwo(kVars) - BigUint(1);
  EXPECT_EQ(decisions, kVars - 1);
  EXPECT_EQ(circuit_count, expected);
  EXPECT_EQ(counter_count, expected);
}

// Search identity: decisions, cache hits, component splits, circuit size,
// root id and model count, pinned from the trail-based search. The
// counter runs the same search, so its decisions and cache hits are the
// compiler's. The model counts and WMC values are the ones the copy-based
// search gave; the id-keyed component cache merges fewer equal reduced
// clause sets than that search's content keys did, and repeated clauses
// count once per id when choosing a branch variable, so on some random
// CNFs the search differs by a few decisions. On the servebench network
// it is the same search.

// The servebench Bayesian network (servebench/serve_bench.cc,
// BandedNetwork): 24 binary variables, parents among the 4 predecessors.
BayesianNetwork BandedBn() {
  Rng shape(0x5e7eb0c4ull);
  Rng params(1);
  BayesianNetwork net;
  for (size_t v = 0; v < 24; ++v) {
    const size_t window = std::min<size_t>(v, 4);
    const size_t count =
        window == 0 ? 0 : shape.Below(std::min<size_t>(window, 3) + 1);
    std::vector<BnVar> parents;
    while (parents.size() < count) {
      const BnVar p = static_cast<BnVar>(v - 1 - shape.Below(window));
      if (std::find(parents.begin(), parents.end(), p) == parents.end()) {
        parents.push_back(p);
      }
    }
    std::vector<double> cpt_true(size_t{1} << parents.size());
    for (double& x : cpt_true) x = 0.05 + 0.9 * params.Uniform();
    net.AddBinary(std::string("x").append(std::to_string(v)),
                  std::move(parents), std::move(cpt_true));
  }
  return net;
}

TEST(SearchIdentityTest, BandedBnEncoding) {
  const WmcEncoding encoding(BandedBn());
  const Cnf& cnf = encoding.cnf();
  ASSERT_EQ(cnf.num_vars(), 214u);
  ASSERT_EQ(cnf.num_clauses(), 736u);
  NnfManager m;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, m);
  EXPECT_EQ(compiler.stats().decisions, 159u);
  EXPECT_EQ(compiler.stats().cache_hits, 222u);
  EXPECT_EQ(compiler.stats().components_split, 170u);
  EXPECT_EQ(m.CircuitSize(root), 3402u);
  EXPECT_EQ(root, 1224u);
  EXPECT_EQ(ModelCount(m, root, cnf.num_vars()), BigUint::PowerOfTwo(24));

  // The counter on the same encoding, with its real (non-dyadic) weights:
  // the WMC pin is sensitive to the order factors multiply in.
  ModelCounter counter;
  EXPECT_EQ(counter.Count(cnf), BigUint::PowerOfTwo(24));
  EXPECT_EQ(counter.stats().decisions, 159u);
  EXPECT_EQ(counter.stats().cache_hits, 222u);
  EXPECT_EQ(counter.Wmc(cnf, encoding.weights()), 0x1.ffffffffffffep-1);
  EXPECT_EQ(counter.stats().decisions, 159u);
  EXPECT_EQ(counter.stats().cache_hits, 222u);
  EXPECT_EQ(counter.stats().underflow_rescues, 0u);
}

// Seeded random CNFs: 3-CNF at 1.6-3.2 clauses per variable and, every
// fourth instance, an underconstrained 2-CNF that splits into many
// components.
Cnf IdentityCnf(size_t i) {
  const size_t n = 12 + (i % 7) * 2;
  const size_t k = i % 4 == 3 ? 2 : 3;
  const size_t tenths = k == 2 ? 5 + (i % 5) * 2 : 16 + (i % 5) * 4;
  return RandomCnf(n, n * tenths / 10, k, 7000 + i);
}

// Weights in quarters with W(x) + W(¬x) = 1: over at most 24 variables
// every intermediate WMC is a multiple of 2^-48 in [0, 1], so each is
// exact in a double and the pinned value does not depend on the order
// the factors are multiplied in.
WeightMap QuarterWeights(size_t n, uint64_t seed) {
  Rng rng(seed);
  WeightMap w(n);
  for (Var v = 0; v < n; ++v) {
    const double p = 0.25 * static_cast<double>(1 + rng.Below(3));
    w.Set(Pos(v), p);
    w.Set(Neg(v), 1.0 - p);
  }
  return w;
}

struct GoldenCompile {
  uint64_t decisions;
  uint64_t cache_hits;
  uint64_t components_split;
  size_t circuit_size;
  NnfId root;
};

struct GoldenInstance {
  uint64_t models;
  // DdnnfOptions {use_components, use_cache}: {F,F}, {F,T}, {T,F}, {T,T}.
  GoldenCompile compile[4];
  // ModelCounter: Count and Wmc run the same search.
  uint64_t counter_decisions;
  uint64_t counter_cache_hits;
  double wmc;
};

constexpr GoldenInstance kGolden[] = {
    {274,
     {{22, 0, 0, 137, 97}, {22, 0, 0, 137, 97},
      {21, 0, 1, 136, 97}, {21, 0, 1, 136, 97}},
     21, 0, 0x1.f9ep-5},
    {146,
     {{27, 0, 0, 162, 109}, {26, 1, 0, 162, 109},
      {26, 0, 1, 156, 105}, {25, 1, 1, 156, 105}},
     25, 1, 0x1.0749p-8},
    {380,
     {{59, 0, 0, 325, 192}, {47, 10, 0, 325, 192},
      {52, 0, 4, 305, 180}, {45, 7, 4, 305, 180}},
     45, 7, 0x1.4ea28p-7},
    {2920,
     {{21, 0, 0, 116, 85}, {15, 6, 0, 116, 85},
      {14, 0, 3, 81, 65}, {11, 2, 3, 81, 65}},
     11, 2, 0x1.12e0cp-6},
    {84,
     {{32, 0, 0, 273, 134}, {30, 2, 0, 273, 134},
      {32, 0, 0, 273, 134}, {30, 2, 0, 273, 134}},
     30, 2, 0x1.1de9ap-16},
    {84499,
     {{971, 0, 0, 2667, 1425}, {376, 286, 0, 2667, 1425},
      {443, 0, 93, 1603, 853}, {229, 167, 89, 1603, 853}},
     229, 167, 0x1.774f551p-7},
    {27465,
     {{630, 0, 0, 2058, 1100}, {290, 179, 0, 2058, 1100},
      {325, 0, 64, 1355, 708}, {197, 107, 64, 1355, 708}},
     197, 107, 0x1.4f1e793p-12},
    {112,
     {{5, 0, 0, 25, 27}, {4, 1, 0, 25, 27},
      {4, 0, 1, 24, 26}, {4, 0, 1, 24, 26}},
     4, 0, 0x1.5p-8},
    {20,
     {{17, 0, 0, 69, 65}, {16, 1, 0, 69, 65},
      {16, 0, 1, 67, 63}, {16, 0, 1, 67, 63}},
     16, 0, 0x1.dep-11},
    {17,
     {{10, 0, 0, 76, 61}, {10, 0, 0, 76, 61},
      {10, 0, 0, 76, 61}, {10, 0, 0, 76, 61}},
     10, 0, 0x1.e0ccp-13},
    {4909,
     {{249, 0, 0, 1052, 583}, {152, 69, 0, 1052, 583},
      {175, 0, 20, 878, 481}, {131, 42, 20, 878, 481}},
     131, 42, 0x1.07e2324cp-5},
    {12960,
     {{95, 0, 0, 62, 60}, {8, 7, 0, 62, 60},
      {8, 0, 1, 47, 50}, {7, 1, 1, 47, 50}},
     7, 1, 0x1.753ep-8},
    {4488,
     {{316, 0, 0, 1461, 760}, {207, 81, 0, 1461, 760},
      {211, 0, 32, 1163, 598}, {166, 43, 32, 1163, 598}},
     166, 43, 0x1.48cd6c4p-12},
    {955,
     {{159, 0, 0, 980, 485}, {127, 28, 0, 980, 485},
      {138, 0, 12, 907, 438}, {121, 17, 12, 907, 438}},
     121, 17, 0x1.deaf866ep-13},
    {11,
     {{11, 0, 0, 76, 61}, {11, 0, 0, 76, 61},
      {11, 0, 0, 76, 61}, {11, 0, 0, 76, 61}},
     11, 0, 0x1.425p-10},
    {2160,
     {{15, 0, 0, 28, 31}, {4, 3, 0, 28, 31},
      {4, 0, 1, 24, 28}, {4, 0, 1, 24, 28}},
     4, 0, 0x1.5d2p-4},
    {575,
     {{92, 0, 0, 541, 304}, {76, 16, 0, 541, 304},
      {81, 0, 4, 515, 289}, {74, 7, 4, 515, 289}},
     74, 7, 0x1.cef5ap-8},
    {732,
     {{89, 0, 0, 433, 252}, {66, 16, 0, 433, 252},
      {64, 0, 5, 374, 221}, {59, 5, 5, 374, 221}},
     59, 5, 0x1.292dp-9},
    {477,
     {{95, 0, 0, 584, 306}, {80, 13, 0, 584, 306},
      {88, 0, 8, 548, 288}, {77, 11, 8, 548, 288}},
     77, 11, 0x1.46d85ep-14},
    {384,
     {{9, 0, 0, 57, 45}, {5, 2, 0, 57, 45},
      {6, 0, 2, 51, 41}, {4, 2, 2, 51, 41}},
     4, 2, 0x1.e2ap-16},
    {112355,
     {{1464, 0, 0, 3954, 2135}, {554, 430, 0, 3954, 2135},
      {656, 0, 124, 2285, 1196}, {318, 247, 118, 2285, 1196}},
     318, 247, 0x1.5494affb34p-6},
    {221,
     {{30, 0, 0, 156, 107}, {24, 4, 0, 156, 107},
      {25, 0, 1, 152, 104}, {24, 1, 1, 152, 104}},
     24, 1, 0x1.f298p-5},
    {63,
     {{27, 0, 0, 190, 114}, {24, 3, 0, 190, 114},
      {25, 0, 1, 183, 111}, {23, 2, 1, 183, 111}},
     23, 2, 0x1.e3aep-10},
    {324,
     {{9, 0, 0, 67, 56}, {8, 1, 0, 67, 56},
      {8, 0, 1, 66, 55}, {8, 0, 1, 66, 55}},
     8, 0, 0x1.a8c68p-7},
    {316,
     {{65, 0, 0, 447, 231}, {57, 8, 0, 447, 231},
      {57, 0, 4, 425, 219}, {55, 2, 4, 425, 219}},
     55, 2, 0x1.cac34p-12},
    {12449,
     {{299, 0, 0, 1085, 601}, {158, 84, 0, 1085, 601},
      {168, 0, 28, 743, 412}, {109, 46, 28, 743, 412}},
     109, 46, 0x1.6d18e6cp-7},
    {2737,
     {{339, 0, 0, 1607, 846}, {223, 87, 0, 1607, 846},
      {260, 0, 29, 1366, 693}, {193, 57, 29, 1366, 693}},
     193, 57, 0x1.ffeb142p-12},
    {44320,
     {{62, 0, 0, 149, 108}, {19, 13, 0, 149, 108},
      {14, 0, 3, 73, 67}, {10, 3, 3, 73, 67}},
     10, 3, 0x1.1a48a8p-11},
    {13,
     {{11, 0, 0, 35, 38}, {11, 0, 0, 35, 38},
      {11, 0, 0, 35, 38}, {11, 0, 0, 35, 38}},
     11, 0, 0x1.2318p-10},
    {13,
     {{17, 0, 0, 55, 53}, {17, 0, 0, 55, 53},
      {17, 0, 0, 55, 53}, {17, 0, 0, 55, 53}},
     17, 0, 0x1.023p-10},
    {3336,
     {{179, 0, 0, 677, 386}, {101, 51, 0, 677, 386},
      {116, 0, 16, 502, 286}, {78, 30, 16, 502, 286}},
     78, 30, 0x1.c116p-7},
    {6720,
     {{34, 0, 0, 84, 68}, {11, 6, 0, 84, 68},
      {10, 0, 1, 51, 52}, {7, 2, 1, 51, 52}},
     7, 2, 0x1.a7fcp-7},
};

TEST(SearchIdentityTest, RandomCnfsMatchPinnedSearch) {
  for (size_t i = 0; i < std::size(kGolden); ++i) {
    const GoldenInstance& g = kGolden[i];
    const Cnf cnf = IdentityCnf(i);
    for (int opt = 0; opt < 4; ++opt) {
      NnfManager m;
      DdnnfCompiler compiler({.use_components = (opt & 2) != 0,
                              .use_cache = (opt & 1) != 0});
      const NnfId root = compiler.Compile(cnf, m);
      const GoldenCompile& want = g.compile[opt];
      SCOPED_TRACE("instance " + std::to_string(i) + " options " +
                   std::to_string(opt));
      EXPECT_EQ(compiler.stats().decisions, want.decisions);
      EXPECT_EQ(compiler.stats().cache_hits, want.cache_hits);
      EXPECT_EQ(compiler.stats().components_split, want.components_split);
      EXPECT_EQ(m.CircuitSize(root), want.circuit_size);
      EXPECT_EQ(root, want.root);
      EXPECT_EQ(ModelCount(m, root, cnf.num_vars()).ToU64(), g.models);
    }
    SCOPED_TRACE("instance " + std::to_string(i) + " counter");
    ModelCounter counter;
    EXPECT_EQ(counter.Count(cnf).ToU64(), g.models);
    EXPECT_EQ(counter.stats().decisions, g.counter_decisions);
    EXPECT_EQ(counter.stats().cache_hits, g.counter_cache_hits);
    EXPECT_EQ(counter.Wmc(cnf, QuarterWeights(cnf.num_vars(), 8000 + i)),
              g.wmc);
    EXPECT_EQ(counter.stats().decisions, g.counter_decisions);
    EXPECT_EQ(counter.stats().cache_hits, g.counter_cache_hits);
  }
}

TEST(ModelCounterTest, CounterAgreesWithCompilerTrace) {
  // The paper's point: a model counter's trace is a d-DNNF. Both run one
  // search, so they agree on the count and on every decision and cache hit.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Cnf cnf = RandomCnf(13, 36, 3, seed + 2000);
    ModelCounter counter;
    NnfManager m;
    DdnnfCompiler compiler;
    NnfId root = compiler.Compile(cnf, m);
    EXPECT_EQ(counter.Count(cnf), ModelCount(m, root, 13)) << "seed " << seed;
    EXPECT_EQ(counter.stats().decisions, compiler.stats().decisions)
        << "seed " << seed;
    EXPECT_EQ(counter.stats().cache_hits, compiler.stats().cache_hits)
        << "seed " << seed;
  }
}

// The registry counters one engine's search feeds, read together so a
// test can take deltas around a run.
struct SearchCounts {
  uint64_t decisions, cache_hits, cache_misses, splits, rescues;
};

SearchCounts ReadSearchCounts(const std::string& engine) {
  const Observability& obs = Observability::Global();
  return {obs.CounterValue(engine + ".decisions"),
          obs.CounterValue(engine + ".cache_hits"),
          obs.CounterValue(engine + ".cache_misses"),
          obs.CounterValue(engine + ".components_split"),
          obs.CounterValue("counter.wmc.rescues")};
}

// Runs the compiler and both counters on `cnf` under `budget` and checks
// that each run's registry deltas equal its own stats. Every decision
// follows a cache miss, so the miss delta equals the decisions.
void ExpectRegistryDeltasEqualStats(const Cnf& cnf, const WeightMap& w,
                                    const Budget& budget, bool refused) {
  {
    const SearchCounts before = ReadSearchCounts("ddnnf");
    NnfManager m;
    DdnnfCompiler compiler;
    Guard guard(budget);
    const Result<NnfId> root = compiler.CompileBounded(cnf, m, guard);
    ASSERT_EQ(root.ok(), !refused);
    if (refused) {
      EXPECT_EQ(root.status().code(), StatusCode::kBudgetExceeded);
    }
    const DdnnfStats& s = compiler.stats();
    ASSERT_GT(s.decisions, 0u);
    const SearchCounts after = ReadSearchCounts("ddnnf");
    EXPECT_EQ(after.decisions - before.decisions, s.decisions);
    EXPECT_EQ(after.cache_misses - before.cache_misses, s.decisions);
    EXPECT_EQ(after.cache_hits - before.cache_hits, s.cache_hits);
    EXPECT_EQ(after.splits - before.splits, s.components_split);
  }
  for (const bool weighted : {false, true}) {
    const SearchCounts before = ReadSearchCounts("counter");
    ModelCounter counter;
    Guard guard(budget);
    const bool ok = weighted ? counter.WmcBounded(cnf, w, guard).ok()
                             : counter.CountBounded(cnf, guard).ok();
    ASSERT_EQ(ok, !refused) << "weighted " << weighted;
    const ModelCounter::Stats& s = counter.stats();
    ASSERT_GT(s.decisions, 0u);
    EXPECT_EQ(s.underflow_rescues > 0, weighted);
    const SearchCounts after = ReadSearchCounts("counter");
    EXPECT_EQ(after.decisions - before.decisions, s.decisions);
    EXPECT_EQ(after.cache_misses - before.cache_misses, s.decisions);
    EXPECT_EQ(after.cache_hits - before.cache_hits, s.cache_hits);
    EXPECT_EQ(after.rescues - before.rescues, s.underflow_rescues);
  }
}

// The search keeps its counts locally and adds them to the registry once
// per run, on every exit: a completed run and one that the decision budget
// refuses both leave deltas equal to their stats.
TEST(SearchCountersTest, RegistryDeltasEqualStatsOnEveryExit) {
  // A random 3-CNF, which splits and hits the cache, beside 200 unit
  // clauses of weight 1e-3, whose product leaves the double range at the
  // root, so the weighted run counts rescues before its first decision.
  constexpr size_t kVars = 24;
  constexpr size_t kUnits = 200;
  const Cnf random = RandomCnf(kVars, 50, 3, 31);
  Cnf cnf(kVars + kUnits);
  for (const Clause& c : random.clauses()) cnf.AddClause(c);
  WeightMap w(kVars + kUnits);
  for (size_t i = 0; i < kUnits; ++i) {
    const Var v = static_cast<Var>(kVars + i);
    cnf.AddClause({Pos(v)});
    w.Set(Pos(v), 1e-3);
  }

  DdnnfCompiler full;
  NnfManager m;
  full.Compile(cnf, m);
  ASSERT_GT(full.stats().cache_hits, 0u);
  ASSERT_GT(full.stats().components_split, 0u);
  ExpectRegistryDeltasEqualStats(cnf, w, Budget::Unlimited(), false);

  Budget half;
  half.max_decisions = full.stats().decisions / 2;
  ExpectRegistryDeltasEqualStats(cnf, w, half, true);
}

}  // namespace
}  // namespace tbc
