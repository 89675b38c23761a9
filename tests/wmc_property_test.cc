// Property tests for weighted model counting: the count is a function of
// the *formula*, not of its presentation. Two presentations are exercised —
// clause reordering (must be bit-identical: canonicalization sorts the
// clause list, so the DPLL trace is the same) and variable renaming (must
// agree to an ulp-scaled tolerance: the branch order changes, so the same
// sum is accumulated in a different order). A third property covers the
// compiled circuit's query kernels: their answers do not depend on whether
// the manager's query cache (the root's gap plan) was cold, warmed, or
// rebuilt over a store-restored manager. The validate
// preset (TBC_VALIDATE=ON) runs this file unchanged with the
// self-checking assertions compiled in.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "base/random.h"
#include "bayes/network.h"
#include "bayes/wmc_encoding.h"
#include "compiler/ddnnf_compiler.h"
#include "compiler/model_counter.h"
#include "logic/cnf.h"
#include "logic/lit.h"
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
      // Bit-identical, not merely close: every branch multiplies its
      // factors in variable order and its components in order of their
      // smallest variable, so the presentation order never reaches the
      // accumulator.
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
  auto gap = [&](Span<const uint64_t> big, Span<const uint64_t> small) {
    std::vector<Var> missing;
    AppendMissingVars(big, small, missing);
    double f = 1.0;
    for (Var v : missing) f *= w[Pos(v)] + w[Neg(v)];
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
// gap and its derivative both run) with some zero literal weights (so
// MarginalWmc's single-zero-factor derivative branches run). A cold
// manager, a manager warmed by GapPlanCached and one restored through the
// store must answer bit-identically, and queries must not grow the
// manager.
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
    warm.GapPlanCached(warm_root);
    const size_t nodes = warm.num_nodes();
    const size_t vars = warm.num_vars();
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
    const size_t mapped_nodes = mapped.num_nodes();
    // Every kernel, marginals included, reads only the gap plan, which the
    // store's order-preserving remap leaves the same: bit-identical to the
    // in-memory manager, and no query appends to the overlay.
    ExpectBitIdentical(Answer(mapped, restored->root, w), want, true,
                       where + " restored");
    ExpectBitIdentical(Answer(mapped, restored->root, w), want, true,
                       where + " restored, second call");
    EXPECT_EQ(mapped.num_nodes(), mapped_nodes) << where;
    std::remove(path.c_str());
  }
  EXPECT_GE(satisfiable, 20u);
  EXPECT_GT(with_zero_marginals, 20u);
}

// servebench's banded Bayesian network (servebench/serve_bench.cc,
// BandedNetwork): 24 binary variables, each with up to three parents among
// its four predecessors. Its WMC encoding is the circuit every servebench
// query runs on.
BayesianNetwork BandedNetwork() {
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

// FNV-1a over the bit patterns of `xs`.
uint64_t Digest(const std::vector<double>& xs) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (double x : xs) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    for (int b = 0; b < 64; b += 8) {
      h = (h ^ ((bits >> b) & 0xff)) * 0x100000001b3ull;
    }
  }
  return h;
}

std::string Hex(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", x);
  return buf;
}

// The banded BN's d-DNNF under evidence that zeroes some indicator weights
// (so the and-gate derivative's zero-factor branches run). WMC, MPE and
// every literal marginal are pinned to the bit: a kernel rewrite that
// reorders a single multiplication shows here. The values were recorded
// with the kernels that marginalized over the smoothed circuit.
TEST(WmcPropertyTest, BandedBnAnswersArePinned) {
  const BayesianNetwork net = BandedNetwork();
  const WmcEncoding enc(net);
  BnInstantiation evidence(net.num_vars(), kUnobserved);
  evidence[3] = 1;
  evidence[10] = 0;
  evidence[17] = 1;
  evidence[23] = 0;
  const WeightMap w = enc.WeightsWithEvidence(evidence);
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(enc.cnf(), mgr);

  EXPECT_EQ(Hex(Wmc(mgr, root, w)), "0x1.8ca244cfdb444p-4");
  const MpeResult mpe = MaxWmc(mgr, root, w, enc.num_bool_vars());
  EXPECT_EQ(Hex(mpe.weight), "0x1.f6d0751d59cfap-14");
  const std::vector<double> assignment(mpe.assignment.begin(),
                                       mpe.assignment.end());
  EXPECT_EQ(Digest(assignment), 0x5c3f050230682565ull);
  const std::vector<double> marginals = MarginalWmc(mgr, root, w);
  EXPECT_EQ(marginals.size(), 2 * enc.num_bool_vars());
  EXPECT_EQ(Digest(marginals), 0x555dea45bbc70c36ull);
}

}  // namespace
}  // namespace tbc
