// Property tests for weighted model counting: the count is a function of
// the *formula*, not of its presentation. Two presentations are exercised —
// clause reordering (must be bit-identical: canonicalization sorts the
// clause list, so the DPLL trace is the same) and variable renaming (must
// agree to an ulp-scaled tolerance: the branch order changes, so the same
// sum is accumulated in a different order). A third property covers the
// compiled circuit's query kernels: their answers do not depend on whether
// the manager's query caches (gap plan, smoothing memo, schedules) were
// cold, warmed, or rebuilt over a store-restored manager. The validate
// preset (TBC_VALIDATE=ON) runs this file unchanged with the
// self-checking assertions compiled in.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "base/random.h"
#include "compiler/ddnnf_compiler.h"
#include "compiler/model_counter.h"
#include "logic/cnf.h"
#include "logic/lit.h"
#include "nnf/properties.h"
#include "nnf/queries.h"
#include "store/store.h"

namespace tbc {
namespace {

Cnf RandomCnf(size_t num_vars, size_t num_clauses, uint64_t seed) {
  Rng rng(seed);
  Cnf cnf(num_vars);
  for (size_t i = 0; i < num_clauses; ++i) {
    std::set<Var> vars;
    while (vars.size() < 3) {
      vars.insert(static_cast<Var>(rng.Below(num_vars)));
    }
    Clause c;
    for (Var v : vars) c.push_back(Lit(v, rng.Flip(0.5)));
    cnf.AddClause(c);
  }
  return cnf;
}

WeightMap RandomWeights(size_t num_vars, uint64_t seed) {
  Rng rng(seed);
  WeightMap w(num_vars);
  for (Var v = 0; v < num_vars; ++v) {
    const double p = 0.05 + 0.9 * rng.Uniform();
    w.Set(Pos(v), p);
    w.Set(Neg(v), 1.0 - p);
  }
  return w;
}

std::vector<Var> RandomPermutation(size_t n, Rng& rng) {
  std::vector<Var> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<Var>(i);
  for (size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.Below(i)]);
  }
  return perm;
}

Cnf ShuffleClauses(const Cnf& cnf, Rng& rng) {
  std::vector<Clause> clauses = cnf.clauses();
  for (size_t i = clauses.size(); i > 1; --i) {
    std::swap(clauses[i - 1], clauses[rng.Below(i)]);
  }
  Cnf out(cnf.num_vars());
  for (Clause& c : clauses) out.AddClause(std::move(c));
  return out;
}

Cnf RenameVars(const Cnf& cnf, const std::vector<Var>& perm) {
  Cnf out(cnf.num_vars());
  for (const Clause& c : cnf.clauses()) {
    Clause renamed;
    renamed.reserve(c.size());
    for (const Lit l : c) renamed.push_back(Lit(perm[l.var()], l.positive()));
    out.AddClause(std::move(renamed));
  }
  return out;
}

WeightMap RenameWeights(const WeightMap& w, const std::vector<Var>& perm) {
  WeightMap out(w.num_vars());
  for (Var v = 0; v < w.num_vars(); ++v) {
    out.Set(Pos(perm[v]), w[Pos(v)]);
    out.Set(Neg(perm[v]), w[Neg(v)]);
  }
  return out;
}

TEST(WmcPropertyTest, InvariantUnderClauseReordering) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const Cnf cnf = RandomCnf(14, 42, seed + 7000);
    const WeightMap w = RandomWeights(14, seed + 7100);
    ModelCounter counter;
    const double base = counter.Wmc(cnf, w);
    Rng rng(seed + 7200);
    for (int round = 0; round < 4; ++round) {
      const Cnf shuffled = ShuffleClauses(cnf, rng);
      ModelCounter fresh;
      // Bit-identical, not merely close: Canonicalize sorts the clause
      // list before the search, so the presentation order never reaches
      // the accumulator.
      EXPECT_EQ(fresh.Wmc(shuffled, w), base)
          << "seed " << seed << " round " << round;
    }
  }
}

TEST(WmcPropertyTest, InvariantUnderVariableRenaming) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const Cnf cnf = RandomCnf(14, 42, seed + 8000);
    const WeightMap w = RandomWeights(14, seed + 8100);
    ModelCounter counter;
    const double base = counter.Wmc(cnf, w);
    Rng rng(seed + 8200);
    for (int round = 0; round < 4; ++round) {
      const std::vector<Var> perm = RandomPermutation(14, rng);
      const Cnf renamed = RenameVars(cnf, perm);
      const WeightMap rw = RenameWeights(w, perm);
      ModelCounter fresh;
      const double got = fresh.Wmc(renamed, rw);
      // Renaming permutes the branch order, so the same sum accumulates in
      // a different order; allow an ulp-scaled tolerance (2^-40 relative,
      // ~8k ulps of headroom over the handful that actually occur).
      const double tol = std::ldexp(std::fabs(base), -40);
      EXPECT_NEAR(got, base, tol) << "seed " << seed << " round " << round;
    }
  }
}

TEST(WmcPropertyTest, ExactCountInvariantUnderRenaming) {
  // The integer counter has no rounding at all: renaming must preserve the
  // exact BigUint count.
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const Cnf cnf = RandomCnf(13, 36, seed + 9000);
    ModelCounter counter;
    const BigUint base = counter.Count(cnf);
    Rng rng(seed + 9100);
    const std::vector<Var> perm = RandomPermutation(13, rng);
    ModelCounter fresh;
    EXPECT_EQ(fresh.Count(RenameVars(cnf, perm)), base) << "seed " << seed;
  }
}

// The gap-factor WMC recurrence straight from the varsets, in node-id
// order: each or-input's gap weights multiply in ascending variable
// order. WmcBounded must match it bit for bit, whatever it caches.
double ReferenceWmc(NnfManager& mgr, NnfId root, const WeightMap& w) {
  auto gap = [&](const std::vector<uint64_t>& big,
                 const std::vector<uint64_t>& small) {
    double f = 1.0;
    for (Var v : MissingVars(big, small)) f *= w[Pos(v)] + w[Neg(v)];
    return f;
  };
  mgr.VarSet(root);
  std::vector<double> value(mgr.num_nodes(), 0.0);
  for (NnfId n : mgr.TopologicalOrder(root)) {
    double x = 0.0;
    switch (mgr.kind(n)) {
      case NnfManager::Kind::kFalse:
        break;
      case NnfManager::Kind::kTrue:
        x = 1.0;
        break;
      case NnfManager::Kind::kLiteral:
        x = w[mgr.lit(n)];
        break;
      case NnfManager::Kind::kAnd:
        x = 1.0;
        for (NnfId c : mgr.children(n)) x *= value[c];
        break;
      case NnfManager::Kind::kOr:
        for (NnfId c : mgr.children(n)) {
          x += value[c] * gap(mgr.VarSet(n), mgr.VarSet(c));
        }
        break;
    }
    value[n] = x;
  }
  std::vector<uint64_t> all((w.num_vars() + 63) / 64, 0);
  for (size_t v = 0; v < w.num_vars(); ++v) all[v / 64] |= 1ull << (v % 64);
  return value[root] * gap(all, mgr.VarSet(root));
}

// The three d-DNNF query kernels on one circuit and weight vector.
struct KernelAnswers {
  double wmc = 0.0;
  std::vector<double> marginals;
  MpeResult mpe;
};

KernelAnswers Answer(NnfManager& mgr, NnfId root, const WeightMap& w) {
  Guard& unlimited = Guard::Unlimited();
  KernelAnswers a;
  a.wmc = WmcBounded(mgr, root, w, unlimited).value();
  a.marginals = MarginalWmc(mgr, root, w);
  a.mpe = MaxWmcBounded(mgr, root, w, w.num_vars(), unlimited).value();
  return a;
}

void ExpectBitIdentical(const KernelAnswers& got, const KernelAnswers& want,
                        bool marginals, const std::string& where) {
  EXPECT_EQ(got.wmc, want.wmc) << where;
  if (marginals) {
    EXPECT_EQ(got.marginals, want.marginals) << where;
  }
  EXPECT_EQ(got.mpe.weight, want.mpe.weight) << where;
  EXPECT_EQ(got.mpe.assignment, want.mpe.assignment) << where;
}

// Seeded random CNFs (some variables never mentioned, so the root-level
// gap and the smoothing over absent variables both run) with some zero
// literal weights (so MarginalWmc's single-zero-factor derivative branch
// runs). A cold manager, a manager warmed by WarmQueries and one restored
// through the store must answer bit-identically, and warmed queries must
// not grow the manager.
TEST(WmcPropertyTest, QueryKernelsAreBitIdenticalColdWarmAndRestored) {
  size_t satisfiable = 0;
  size_t with_zero_marginals = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed + 9500);
    const size_t used = 10 + rng.Below(12);
    const size_t num_vars = used + rng.Below(4);
    // Clause/variable ratios 0.5-1.5 leave or-inputs with wide gaps.
    const Cnf base = RandomCnf(used, used * (1 + seed % 3) / 2, seed + 9600);
    Cnf cnf(num_vars);
    for (const Clause& c : base.clauses()) cnf.AddClause(c);
    // Unnormalized weights (W(x)+W(¬x) != 1), so the order in which gap
    // factors multiply shows in the bits.
    WeightMap w(num_vars);
    for (Var v = 0; v < num_vars; ++v) {
      w.Set(Pos(v), 0.05 + 1.9 * rng.Uniform());
      w.Set(Neg(v), 0.05 + 1.9 * rng.Uniform());
      if (rng.Below(8) == 0) w.Set(Lit(v, rng.Flip(0.5)), 0.0);
    }
    const std::string where = "seed " + std::to_string(seed);

    DdnnfCompiler compiler;
    NnfManager cold;
    const NnfId cold_root = compiler.Compile(cnf, cold);
    if (ModelCount(cold, cold_root, num_vars).IsZero()) continue;
    ++satisfiable;
    const KernelAnswers want = Answer(cold, cold_root, w);
    EXPECT_EQ(want.wmc, ReferenceWmc(cold, cold_root, w)) << where;

    // Marginals agree with the conditioning oracle WMC(Δ ∧ l).
    for (Var v = 0; v < num_vars; ++v) {
      WeightMap only_pos = w;
      only_pos.Set(Neg(v), 0.0);
      const double oracle = Wmc(cold, cold_root, only_pos);
      EXPECT_NEAR(want.marginals[Pos(v).code()], oracle,
                  1e-12 * std::max(1.0, std::fabs(oracle)))
          << where << " var " << v;
      if (w[Pos(v)] == 0.0 || w[Neg(v)] == 0.0) ++with_zero_marginals;
    }

    NnfManager warm;
    const NnfId warm_root = compiler.Compile(cnf, warm);
    WarmQueries(warm, warm_root, num_vars);
    const size_t nodes = warm.num_nodes();
    const size_t vars = warm.num_vars();
    const NnfId smooth = warm.FindSmoothed(warm_root, num_vars);
    ASSERT_NE(smooth, kInvalidNnf) << where;  // WarmQueries filled the memo
    EXPECT_EQ(Smooth(warm, warm_root, num_vars), smooth) << where;
    for (int round = 0; round < 2; ++round) {
      ExpectBitIdentical(Answer(warm, warm_root, w), want, true, where);
    }
    EXPECT_EQ(warm.num_nodes(), nodes) << where;
    EXPECT_EQ(warm.num_vars(), vars) << where;

    const std::string path =
        testing::TempDir() + "/wmc_property_" + std::to_string(seed) + ".tbc";
    StoreWriteOptions options;
    options.num_vars = num_vars;
    ASSERT_TRUE(WriteCircuitStore(cold, cold_root, path, options).ok());
    auto restored = LoadCircuitStore(path);
    ASSERT_TRUE(restored.ok()) << restored.status().message();
    NnfManager& mapped = *restored->mgr;
    const KernelAnswers first = Answer(mapped, restored->root, w);
    // WMC and MPE are bit-identical to the in-memory manager. Marginals run
    // over the smoothed circuit, which a mapped manager builds in its
    // overlay without interning against the base, so gate inputs may
    // multiply in another order: equal up to rounding, and bit-identical
    // to themselves across calls.
    ExpectBitIdentical(first, want, false, where + " restored");
    ASSERT_EQ(first.marginals.size(), want.marginals.size());
    for (size_t i = 0; i < want.marginals.size(); ++i) {
      EXPECT_NEAR(first.marginals[i], want.marginals[i],
                  std::ldexp(std::max(1.0, std::fabs(want.marginals[i])), -40))
          << where << " restored literal " << i;
    }
    const size_t mapped_nodes = mapped.num_nodes();
    const NnfId mapped_smooth = Smooth(mapped, restored->root, num_vars);
    EXPECT_EQ(Smooth(mapped, restored->root, num_vars), mapped_smooth) << where;
    ExpectBitIdentical(Answer(mapped, restored->root, w), first, true,
                       where + " restored, second call");
    EXPECT_EQ(mapped.num_nodes(), mapped_nodes) << where;
    std::remove(path.c_str());
  }
  EXPECT_GE(satisfiable, 20u);
  EXPECT_GT(with_zero_marginals, 20u);
}

}  // namespace
}  // namespace tbc
