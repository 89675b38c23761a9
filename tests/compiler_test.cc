#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "base/observability.h"
#include "base/random.h"
#include "bayes/network.h"
#include "bayes/wmc_encoding.h"
#include "compiler/ddnnf_compiler.h"
#include "compiler/model_counter.h"
#include "compiler/subproblem.h"
#include "dpll_oracle.h"
#include "nnf/properties.h"
#include "nnf/queries.h"

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
    EXPECT_TRUE(IsDecomposable(m, root)) << "seed " << seed;
    EXPECT_TRUE(IsDeterministicExhaustive(m, root, 10)) << "seed " << seed;
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
#if TBC_OBSERVE_ON
  // The rescue is also surfaced through the observability registry.
  EXPECT_GE(Observability::Global().CounterValue("counter.wmc.rescues"), 1u);
#endif
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

compiler_internal::ClauseSet MakeClauseSet(
    const std::vector<std::vector<Lit>>& clauses) {
  compiler_internal::ClauseSet set;
  for (const auto& c : clauses) set.Append(c);
  return set;
}

// The cache key Canonicalize writes for `clauses`, given sorted and in
// canonical order.
std::vector<uint32_t> KeyOf(const std::vector<std::vector<Lit>>& clauses) {
  const compiler_internal::ClauseSet set = MakeClauseSet(clauses);
  compiler_internal::ClauseSet canonical;
  std::vector<compiler_internal::SortEntry> order;
  std::vector<uint32_t> key;
  compiler_internal::Canonicalize(compiler_internal::AllOf(set), &order,
                                  &canonical, &key);
  EXPECT_EQ(canonical.lits, set.lits);
  EXPECT_EQ(canonical.ends, set.ends);
  return key;
}

TEST(SubproblemTest, CacheKeyPinnedEncoding) {
  // Pins the length-prefixed layout: literal count, then the literal
  // codes, per clause. Changing the encoding silently invalidates nothing
  // (the cache is per-run) but must be a conscious decision — it is the
  // injectivity proof the component cache rests on.
  const std::vector<uint32_t> expected = {
      2, Pos(0).code(), Neg(1).code(), 1, Pos(2).code()};
  EXPECT_EQ(KeyOf({{Pos(0), Neg(1)}, {Pos(2)}}), expected);
  EXPECT_EQ(KeyOf({}), std::vector<uint32_t>());
  // The fingerprint returned alongside is the key's; without a key
  // buffer none is computed.
  const compiler_internal::ClauseSet set =
      MakeClauseSet({{Pos(2)}, {Pos(0), Neg(1)}, {Pos(2)}});
  compiler_internal::ClauseSet canonical;
  std::vector<compiler_internal::SortEntry> order;
  std::vector<uint32_t> key;
  const uint64_t fingerprint = compiler_internal::Canonicalize(
      compiler_internal::AllOf(set), &order, &canonical, &key);
  EXPECT_EQ(key, expected);
  EXPECT_EQ(fingerprint, compiler_internal::Fingerprint(expected));
  EXPECT_EQ(compiler_internal::Canonicalize(compiler_internal::AllOf(set),
                                            &order, &canonical, nullptr),
            0u);
}

TEST(SubproblemTest, CacheKeyIsInjectiveOnSentinelLiteral) {
  // A sentinel scheme that terminated each clause with 0xFFFFFFFF is not
  // injective: that is also the literal code of Neg(2^31 - 1), reachable
  // through the public Lit constructor, so the two clause sets below
  // serialized to identical words (A S S B S) and the component cache
  // could serve one's count for the other. Length prefixes keep every
  // distinct clause set distinct.
  const Lit a = Pos(0);
  const Lit b = Pos(1);
  const Lit s = Neg(0x7FFFFFFFu);
  ASSERT_EQ(s.code(), 0xFFFFFFFFu);
  const std::vector<std::vector<Lit>> lhs = {{a, s}, {b}};
  const std::vector<std::vector<Lit>> rhs = {{a}, {s, b}};
  const auto sentinel_key = [](const std::vector<std::vector<Lit>>& cs) {
    std::vector<uint32_t> key;
    for (const auto& c : cs) {
      for (const Lit l : c) key.push_back(l.code());
      key.push_back(0xFFFFFFFFu);
    }
    return key;
  };
  // The encoding, written by its own pass: rhs's second clause is not
  // sorted, so Canonicalize would not take it.
  const auto length_prefixed_key = [](const std::vector<std::vector<Lit>>& cs) {
    return dpll_oracle::CacheKey(MakeClauseSet(cs));
  };
  EXPECT_EQ(sentinel_key(lhs), sentinel_key(rhs));                // the bug
  EXPECT_NE(length_prefixed_key(lhs), length_prefixed_key(rhs));  // the fix
  EXPECT_EQ(KeyOf(lhs), length_prefixed_key(lhs));
}

TEST(SubproblemTest, ComponentCacheVerifiesKeysOnFingerprintCollision) {
  // Three distinct keys forced onto one fingerprint, so they share one
  // probe chain: every lookup must still answer by the full key.
  compiler_internal::ComponentCache<int> cache;
  const std::vector<uint32_t> k1 = KeyOf({{Pos(0), Neg(1)}});
  const std::vector<uint32_t> k2 = KeyOf({{Pos(0), Pos(1)}});
  const std::vector<uint32_t> k3 = KeyOf({{Pos(0)}, {Neg(1)}});
  const std::vector<uint32_t> prefix_of_k3 = KeyOf({{Pos(0)}});
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

TEST(SubproblemTest, TransformsAreOrderPreservingFilters) {
  using compiler_internal::ClauseSet;
  // Propagate: x0 is forced, which satisfies the second clause and
  // shrinks the third; the survivors keep their order.
  ClauseSet set = MakeClauseSet({{Pos(0)},
                                 {Pos(0), Pos(1)},
                                 {Neg(0), Pos(2), Pos(3)},
                                 {Pos(4), Pos(5)}});
  std::vector<Lit> implied;
  compiler_internal::VarMap value;
  value.Resize(8);
  ASSERT_EQ(compiler_internal::Propagate(&set, &implied, value),
            compiler_internal::BcpOutcome::kOk);
  EXPECT_EQ(implied, std::vector<Lit>{Pos(0)});
  ClauseSet expected = MakeClauseSet({{Pos(2), Pos(3)}, {Pos(4), Pos(5)}});
  EXPECT_EQ(set.lits, expected.lits);
  EXPECT_EQ(set.ends, expected.ends);
  ClauseSet conflict = MakeClauseSet({{Pos(0)}, {Neg(0)}});
  EXPECT_EQ(compiler_internal::Propagate(&conflict, &implied, value),
            compiler_internal::BcpOutcome::kConflict);

  // SplitComponents: components ordered by their first clause, clause
  // order kept within each.
  const ClauseSet mixed = MakeClauseSet({{Pos(0), Pos(1)},
                                         {Pos(5), Pos(6)},
                                         {Neg(1), Pos(2)},
                                         {Neg(6), Pos(7)}});
  ClauseSet scratch;
  std::vector<uint32_t> comp_ends;
  compiler_internal::SplitScratch split;
  split.parent.Resize(8);
  split.comp_index.Resize(8);
  const ClauseSet& groups =
      compiler_internal::SplitComponents(mixed, &scratch, &comp_ends, split);
  EXPECT_EQ(comp_ends, (std::vector<uint32_t>{2, 4}));
  expected = MakeClauseSet({{Pos(0), Pos(1)},
                            {Neg(1), Pos(2)},
                            {Pos(5), Pos(6)},
                            {Neg(6), Pos(7)}});
  EXPECT_EQ(groups.lits, expected.lits);
  EXPECT_EQ(groups.ends, expected.ends);
  EXPECT_EQ(&compiler_internal::SplitComponents(expected, &scratch,
                                                &comp_ends, split),
            &scratch);  // two components: scattered into the scratch set
  const ClauseSet one = MakeClauseSet({{Pos(0), Pos(1)}, {Neg(1), Pos(2)}});
  EXPECT_EQ(
      &compiler_internal::SplitComponents(one, &scratch, &comp_ends, split),
      &one);  // one component: passed through
  EXPECT_EQ(comp_ends, std::vector<uint32_t>{2});

  // Canonicalize: lexicographic clause order (a clause sorts before its
  // extensions), duplicates dropped.
  const ClauseSet messy = MakeClauseSet({{Pos(1), Pos(2)},
                                         {Pos(0), Pos(3)},
                                         {Pos(0)},
                                         {Pos(1), Pos(2)},
                                         {Pos(0), Pos(1), Pos(2)}});
  std::vector<compiler_internal::SortEntry> order;
  ClauseSet canonical;
  compiler_internal::Canonicalize({&messy, 0, 5}, &order, &canonical,
                                  nullptr);
  expected = MakeClauseSet(
      {{Pos(0)}, {Pos(0), Pos(1), Pos(2)}, {Pos(0), Pos(3)}, {Pos(1), Pos(2)}});
  EXPECT_EQ(canonical.lits, expected.lits);
  EXPECT_EQ(canonical.ends, expected.ends);
}

// A seeded random subproblem over `num_vars` variables: sorted clauses of
// one to four distinct variables, with units, repeated clauses and, on
// some seeds, a literal shared by every clause (so conditioning on it
// satisfies them all).
compiler_internal::ClauseSet RandomClauseSet(Rng& rng, size_t num_vars) {
  std::vector<std::vector<Lit>> clauses;
  const size_t m = rng.Below(14);
  const bool hub = rng.Flip(0.2);
  for (size_t i = 0; i < m; ++i) {
    if (!clauses.empty() && rng.Flip(0.15)) {
      clauses.push_back(clauses[rng.Below(clauses.size())]);
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
  return MakeClauseSet(clauses);
}

TEST(SubproblemTest, PropagateMatchesPassBasedOracle) {
  using compiler_internal::BcpOutcome;
  using compiler_internal::ClauseSet;
  constexpr size_t kVars = 7;
  compiler_internal::VarMap value;
  value.Resize(kVars);
  size_t outcomes[2] = {0, 0};
  size_t assuming_emptied = 0;
  for (uint64_t seed = 0; seed < 3000; ++seed) {
    Rng rng(seed);
    const ClauseSet src = RandomClauseSet(rng, kVars);
    // In place, against the oracle's full passes.
    ClauseSet fused = src;
    ClauseSet reference = src;
    std::vector<Lit> fused_implied;
    std::vector<Lit> reference_implied;
    const BcpOutcome outcome =
        compiler_internal::Propagate(&fused, &fused_implied, value);
    ASSERT_EQ(outcome, dpll_oracle::Propagate(&reference, &reference_implied))
        << "seed " << seed;
    ++outcomes[outcome == BcpOutcome::kOk ? 0 : 1];
    if (outcome == BcpOutcome::kOk) {
      EXPECT_EQ(fused_implied, reference_implied) << "seed " << seed;
      EXPECT_EQ(fused.lits, reference.lits) << "seed " << seed;
      EXPECT_EQ(fused.ends, reference.ends) << "seed " << seed;
    }
    // One fused branch step per literal, against conditioning followed by
    // the oracle.
    for (Var v = 0; v < kVars; ++v) {
      for (const Lit l : {Pos(v), Neg(v)}) {
        ClauseSet branch;
        ClauseSet conditioned;
        compiler_internal::ConditionClauses(src, l, &conditioned);
        const BcpOutcome expected =
            dpll_oracle::Propagate(&conditioned, &reference_implied);
        ASSERT_EQ(compiler_internal::PropagateAssuming(src, l, &branch,
                                                       &fused_implied, value),
                  expected)
            << "seed " << seed << " literal " << l.ToDimacs();
        if (expected != BcpOutcome::kOk) continue;
        EXPECT_EQ(fused_implied, reference_implied)
            << "seed " << seed << " literal " << l.ToDimacs();
        EXPECT_EQ(branch.lits, conditioned.lits)
            << "seed " << seed << " literal " << l.ToDimacs();
        EXPECT_EQ(branch.ends, conditioned.ends)
            << "seed " << seed << " literal " << l.ToDimacs();
        if (!src.empty() && branch.empty()) ++assuming_emptied;
      }
    }
  }
  // The seeds reach both outcomes and branches that satisfy everything.
  EXPECT_GT(outcomes[0], 100u);
  EXPECT_GT(outcomes[1], 100u);
  EXPECT_GT(assuming_emptied, 100u);
}

TEST(SubproblemTest, PropagateRescansBackwardChains) {
  // x0 and x0 -> x1 -> ... -> x5, the implications listed last to first:
  // every pass finds exactly one unit, at the end of what it rescans, and
  // the clause after the chain is moved down unread each time.
  using compiler_internal::ClauseSet;
  std::vector<std::vector<Lit>> clauses;
  for (Var v = 5; v >= 1; --v) clauses.push_back({Neg(v - 1), Pos(v)});
  clauses.push_back({Pos(0)});
  clauses.push_back({Pos(6), Pos(7)});
  ClauseSet fused = MakeClauseSet(clauses);
  ClauseSet reference = fused;
  compiler_internal::VarMap value;
  value.Resize(8);
  std::vector<Lit> implied;
  std::vector<Lit> expected;
  ASSERT_EQ(compiler_internal::Propagate(&fused, &implied, value),
            compiler_internal::BcpOutcome::kOk);
  ASSERT_EQ(dpll_oracle::Propagate(&reference, &expected),
            compiler_internal::BcpOutcome::kOk);
  EXPECT_EQ(implied, (std::vector<Lit>{Pos(0), Pos(1), Pos(2), Pos(3),
                                       Pos(4), Pos(5)}));
  EXPECT_EQ(implied, expected);
  EXPECT_EQ(fused.lits, reference.lits);
  EXPECT_EQ(fused.ends, reference.ends);
  EXPECT_EQ(fused.size(), 1u);
}

TEST(SubproblemTest, CanonicalizeKeyMatchesSeparatePass) {
  constexpr size_t kVars = 6;
  for (uint64_t seed = 0; seed < 500; ++seed) {
    Rng rng(seed);
    const compiler_internal::ClauseSet src = RandomClauseSet(rng, kVars);
    compiler_internal::ClauseSet canonical;
    std::vector<compiler_internal::SortEntry> order;
    std::vector<uint32_t> key = {7, 7, 7};  // a reused buffer's leftovers
    const uint64_t fingerprint = compiler_internal::Canonicalize(
        compiler_internal::AllOf(src), &order, &canonical, &key);
    EXPECT_EQ(key, dpll_oracle::CacheKey(canonical)) << "seed " << seed;
    EXPECT_EQ(fingerprint, compiler_internal::Fingerprint(key));
  }
}

TEST(SubproblemTest, PickBranchVarTakesMostFrequentThenSmallest) {
  constexpr size_t kVars = 6;
  compiler_internal::VarMap occurrences;
  occurrences.Resize(kVars);
  for (uint64_t seed = 0; seed < 500; ++seed) {
    Rng rng(seed);
    const compiler_internal::ClauseSet src = RandomClauseSet(rng, kVars);
    std::vector<size_t> count(kVars, 0);
    for (const Lit l : src.lits) ++count[l.var()];
    Var expected = kInvalidVar;
    for (Var v = 0; v < kVars; ++v) {
      if (count[v] > 0 &&
          (expected == kInvalidVar || count[v] > count[expected])) {
        expected = v;
      }
    }
    EXPECT_EQ(compiler_internal::PickBranchVar(src, occurrences), expected)
        << "seed " << seed;
  }
}

// Search identity: decisions, cache hits, component splits, circuit size,
// root id and model count, pinned from the vector-of-clauses compiler that
// the flat subproblem representation replaced. The counter runs the same
// search, so its decisions and cache hits are the compiler's. Every transform of the
// search is an order-preserving filter and the canonical clause order is
// lexicographic, so the representation must not change the search: the
// same nodes are created in the same order.

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
     {{28, 0, 0, 156, 106}, {25, 3, 0, 156, 106},
      {27, 0, 1, 150, 102}, {24, 3, 1, 150, 102}},
     24, 3, 0x1.0749p-8},
    {380,
     {{59, 0, 0, 316, 191}, {47, 10, 0, 316, 191},
      {52, 0, 4, 296, 179}, {45, 7, 4, 296, 179}},
     45, 7, 0x1.4ea28p-7},
    {2920,
     {{21, 0, 0, 109, 82}, {14, 6, 0, 109, 82},
      {14, 0, 3, 81, 65}, {11, 2, 3, 81, 65}},
     11, 2, 0x1.12e0cp-6},
    {84,
     {{33, 0, 0, 278, 134}, {31, 2, 0, 278, 134},
      {33, 0, 0, 278, 134}, {31, 2, 0, 278, 134}},
     31, 2, 0x1.1de9ap-16},
    {84499,
     {{971, 0, 0, 2645, 1413}, {372, 283, 0, 2645, 1413},
      {442, 0, 93, 1600, 852}, {227, 168, 89, 1600, 852}},
     227, 168, 0x1.774f551p-7},
    {27465,
     {{629, 0, 0, 2055, 1094}, {289, 181, 0, 2055, 1094},
      {322, 0, 64, 1332, 692}, {192, 108, 64, 1332, 692}},
     192, 108, 0x1.4f1e793p-12},
    {112,
     {{5, 0, 0, 25, 27}, {4, 1, 0, 25, 27},
      {4, 0, 1, 24, 26}, {4, 0, 1, 24, 26}},
     4, 0, 0x1.5p-8},
    {20,
     {{15, 0, 0, 69, 64}, {14, 1, 0, 69, 64},
      {14, 0, 1, 67, 62}, {14, 0, 1, 67, 62}},
     14, 0, 0x1.dep-11},
    {17,
     {{10, 0, 0, 76, 61}, {10, 0, 0, 76, 61},
      {10, 0, 0, 76, 61}, {10, 0, 0, 76, 61}},
     10, 0, 0x1.e0ccp-13},
    {4909,
     {{249, 0, 0, 1052, 583}, {152, 69, 0, 1052, 583},
      {175, 0, 20, 878, 481}, {130, 43, 20, 878, 481}},
     130, 43, 0x1.07e2324cp-5},
    {12960,
     {{95, 0, 0, 62, 60}, {8, 7, 0, 62, 60},
      {8, 0, 1, 47, 50}, {7, 1, 1, 47, 50}},
     7, 1, 0x1.753ep-8},
    {4488,
     {{314, 0, 0, 1466, 762}, {207, 80, 0, 1466, 762},
      {210, 0, 31, 1162, 598}, {164, 44, 31, 1162, 598}},
     164, 44, 0x1.48cd6c4p-12},
    {955,
     {{159, 0, 0, 980, 485}, {127, 28, 0, 980, 485},
      {138, 0, 12, 907, 438}, {121, 17, 12, 907, 438}},
     121, 17, 0x1.deaf866ep-13},
    {11,
     {{11, 0, 0, 78, 61}, {11, 0, 0, 78, 61},
      {11, 0, 0, 78, 61}, {11, 0, 0, 78, 61}},
     11, 0, 0x1.425p-10},
    {2160,
     {{15, 0, 0, 28, 31}, {4, 3, 0, 28, 31},
      {4, 0, 1, 24, 28}, {4, 0, 1, 24, 28}},
     4, 0, 0x1.5d2p-4},
    {575,
     {{93, 0, 0, 528, 295}, {72, 20, 0, 528, 295},
      {78, 0, 6, 492, 274}, {69, 8, 6, 492, 274}},
     69, 8, 0x1.cef5ap-8},
    {732,
     {{89, 0, 0, 433, 252}, {66, 16, 0, 433, 252},
      {64, 0, 5, 374, 221}, {59, 5, 5, 374, 221}},
     59, 5, 0x1.292dp-9},
    {477,
     {{97, 0, 0, 601, 314}, {83, 14, 0, 601, 314},
      {92, 0, 6, 572, 301}, {81, 11, 6, 572, 301}},
     81, 11, 0x1.46d85ep-14},
    {384,
     {{9, 0, 0, 57, 45}, {5, 2, 0, 57, 45},
      {6, 0, 2, 51, 41}, {4, 2, 2, 51, 41}},
     4, 2, 0x1.e2ap-16},
    {112355,
     {{1480, 0, 0, 3980, 2157}, {553, 434, 0, 3980, 2157},
      {650, 0, 130, 2293, 1199}, {315, 250, 126, 2293, 1199}},
     315, 250, 0x1.5494affb34p-6},
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
     {{65, 0, 0, 453, 233}, {57, 8, 0, 453, 233},
      {57, 0, 4, 431, 221}, {55, 2, 4, 431, 221}},
     55, 2, 0x1.cac34p-12},
    {12449,
     {{300, 0, 0, 1090, 601}, {159, 84, 0, 1090, 601},
      {172, 0, 31, 754, 415}, {111, 48, 31, 754, 415}},
     111, 48, 0x1.6d18e6cp-7},
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

}  // namespace
}  // namespace tbc
