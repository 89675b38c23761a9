// Parameterized PSDD property suite: over random constraints, vtree
// shapes and datasets, the PSDD invariants of paper §4 must hold —
// normalization over the base, zero off the base, consistency of the
// evidence/marginal/MPE/sampling/multiply machinery with brute force.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/psdd_analyzer.h"
#include "base/random.h"
#include "psdd/psdd.h"
#include "sdd/compile.h"
#include "sdd/sdd.h"
#include "spaces/graph.h"
#include "spaces/routes.h"
#include "vtree/vtree.h"

namespace tbc {
namespace {

constexpr size_t kVars = 6;

// A random satisfiable 3-CNF constraint over kVars variables on one of
// three vtree shapes (0 balanced, 1 right-linear, 2 random), with a PSDD
// learned from 80 of its own uniform samples.
class LearnedPsdd {
 protected:
  void Build(uint64_t seed, int shape) {
    Rng rng(seed * 131 + 7);
    // Random satisfiable CNF constraint.
    Cnf cnf(kVars);
    for (int tries = 0;; ++tries) {
      Cnf candidate(kVars);
      for (int i = 0; i < 8; ++i) {
        std::set<Var> vars;
        while (vars.size() < 3) vars.insert(static_cast<Var>(rng.Below(kVars)));
        Clause c;
        for (Var v : vars) c.push_back(Lit(v, rng.Flip(0.5)));
        candidate.AddClause(c);
      }
      if (candidate.CountModelsBruteForce() > 0) {
        cnf = candidate;
        break;
      }
      ASSERT_LT(tries, 50);
    }
    constraint_ = cnf;
    Rng vrng(seed + 1);
    Vtree vt = shape == 0   ? Vtree::Balanced(Vtree::IdentityOrder(kVars))
               : shape == 1 ? Vtree::RightLinear(Vtree::IdentityOrder(kVars))
                            : Vtree::Random(Vtree::IdentityOrder(kVars), vrng);
    mgr_ = std::make_unique<SddManager>(std::move(vt));
    base_ = CompileCnf(*mgr_, constraint_);

    // Learn from data sampled uniformly from the base.
    psdd_ = std::make_unique<Psdd>(*mgr_, base_);
    Rng drng(seed + 2);
    for (int i = 0; i < 80; ++i) data_.push_back(psdd_->Sample(drng));
    psdd_->LearnParameters(data_, {}, 0.3);
  }

  Cnf constraint_{0};
  std::unique_ptr<SddManager> mgr_;
  SddId base_ = 0;
  std::unique_ptr<Psdd> psdd_;
  std::vector<Assignment> data_;
};

// Parameter: (seed, vtree shape 0..2).
using PsddParam = std::tuple<uint64_t, int>;

class PsddPropertyTest : public ::testing::TestWithParam<PsddParam>,
                         protected LearnedPsdd {
 protected:
  void SetUp() override { Build(std::get<0>(GetParam()), std::get<1>(GetParam())); }
};

TEST_P(PsddPropertyTest, NormalizedOverBaseZeroOffBase) {
  double total = 0.0;
  for (int bits = 0; bits < (1 << kVars); ++bits) {
    Assignment x(kVars);
    for (Var v = 0; v < kVars; ++v) x[v] = (bits >> v) & 1;
    const double p = psdd_->Probability(x);
    if (!mgr_->Evaluate(base_, x)) {
      ASSERT_EQ(p, 0.0);
    } else {
      ASSERT_GE(p, 0.0);
    }
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(PsddPropertyTest, EvidenceMatchesSummation) {
  Rng rng(std::get<0>(GetParam()) + 9);
  for (int trial = 0; trial < 5; ++trial) {
    PsddEvidence e(kVars, Obs::kUnknown);
    for (Var v = 0; v < kVars; ++v) {
      if (rng.Flip(0.4)) e[v] = rng.Flip(0.5) ? Obs::kTrue : Obs::kFalse;
    }
    double sum = 0.0;
    for (int bits = 0; bits < (1 << kVars); ++bits) {
      Assignment x(kVars);
      bool match = true;
      for (Var v = 0; v < kVars; ++v) {
        x[v] = (bits >> v) & 1;
        if (e[v] != Obs::kUnknown && (e[v] == Obs::kTrue) != x[v]) match = false;
      }
      if (match) sum += psdd_->Probability(x);
    }
    ASSERT_NEAR(psdd_->ProbabilityEvidence(e), sum, 1e-10) << "trial " << trial;
  }
}

TEST_P(PsddPropertyTest, MarginalsMatchPerVariableEvidence) {
  PsddEvidence none(kVars, Obs::kUnknown);
  const std::vector<double> marg = psdd_->Marginals(none, /*normalized=*/true);
  for (Var v = 0; v < kVars; ++v) {
    PsddEvidence e(kVars, Obs::kUnknown);
    e[v] = Obs::kTrue;
    ASSERT_NEAR(marg[v], psdd_->ProbabilityEvidence(e), 1e-10) << "var " << v;
  }
}

TEST_P(PsddPropertyTest, MpeIsTheArgmax) {
  PsddEvidence none(kVars, Obs::kUnknown);
  const auto mpe = psdd_->MostProbable(none);
  double best = 0.0;
  for (int bits = 0; bits < (1 << kVars); ++bits) {
    Assignment x(kVars);
    for (Var v = 0; v < kVars; ++v) x[v] = (bits >> v) & 1;
    best = std::max(best, psdd_->Probability(x));
  }
  EXPECT_NEAR(mpe.probability, best, 1e-12);
  EXPECT_NEAR(psdd_->Probability(mpe.assignment), best, 1e-12);
}

TEST_P(PsddPropertyTest, SamplesStayInBase) {
  Rng rng(std::get<0>(GetParam()) + 77);
  for (int i = 0; i < 50; ++i) {
    const Assignment x = psdd_->Sample(rng);
    ASSERT_TRUE(mgr_->Evaluate(base_, x));
  }
}

TEST_P(PsddPropertyTest, SelfMultiplyIsSquaredRenormalized) {
  double z = 0.0;
  const Psdd squared = psdd_->Multiply(*psdd_, &z);
  double z_brute = 0.0;
  for (int bits = 0; bits < (1 << kVars); ++bits) {
    Assignment x(kVars);
    for (Var v = 0; v < kVars; ++v) x[v] = (bits >> v) & 1;
    const double p = psdd_->Probability(x);
    z_brute += p * p;
  }
  EXPECT_NEAR(z, z_brute, 1e-10);
  for (int bits = 0; bits < (1 << kVars); ++bits) {
    Assignment x(kVars);
    for (Var v = 0; v < kVars; ++v) x[v] = (bits >> v) & 1;
    const double p = psdd_->Probability(x);
    ASSERT_NEAR(squared.Probability(x), p * p / z, 1e-10);
  }
}

TEST_P(PsddPropertyTest, AnalyzerAcceptsLearnedAndMultipliedPsdds) {
  // Static verification: learning and multiplication must preserve the
  // normalized PSDD structure and parameter distributions.
  DiagnosticReport learned;
  AnalyzePsdd(*psdd_, learned);
  EXPECT_TRUE(learned.clean()) << learned.ToText("learned psdd");

  double z = 0.0;
  const Psdd squared = psdd_->Multiply(*psdd_, &z);
  DiagnosticReport product;
  AnalyzePsdd(squared, product);
  EXPECT_TRUE(product.clean()) << product.ToText("psdd product");
}

INSTANTIATE_TEST_SUITE_P(
    ConstraintSweep, PsddPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),  // seeds
                       ::testing::Values(0, 1, 2)),       // vtree shapes
    [](const ::testing::TestParamInfo<PsddParam>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_shape" +
             std::to_string(std::get<1>(info.param));
    });

// Bit-for-bit pins of every PSDD query on two learned bases: the suite's
// seed-3 random-vtree base above and route_model's 4x4-grid route space.
// Each pass fixes its operand and element order; these pins hold it.
struct PsddPins {
  double probability = 0.0;       // Pr(x) of the first training example
  double evidence = 0.0;          // Pr(e)
  std::vector<double> marginals;  // Marginals(e, /*normalized=*/false)
  double mpe_probability = 0.0;   // MostProbable(e)
  uint64_t mpe_assignment = 0;    // bit v is x[v]
  std::vector<uint64_t> samples;  // 50 Sample()s from Rng(2024)
  uint64_t params_hash = 0;       // FNV-1a of SerializeParameters()
  size_t params_bytes = 0;
  double em_log_likelihood = 0.0;  // 3 EM iterations from uniform
  double kl = 0.0;                 // KlDivergence(uniform parameters)
  double multiply_z = 0.0;         // learned × EM-learned
  size_t multiply_size = 0;
};

uint64_t Bits(const Assignment& x) {
  uint64_t bits = 0;
  for (size_t v = 0; v < x.size(); ++v) bits |= uint64_t{x[v]} << v;
  return bits;
}

// Runs every query on `learned` (learned from `data` with `laplace` over
// `base`). EM sees each example with variable i mod num_vars hidden.
PsddPins MeasurePins(SddManager& mgr, SddId base, const Psdd& learned,
                     const std::vector<Assignment>& data,
                     const PsddEvidence& e, double laplace) {
  PsddPins pins;
  pins.probability = learned.Probability(data[0]);
  pins.evidence = learned.ProbabilityEvidence(e);
  pins.marginals = learned.Marginals(e, /*normalized=*/false);
  const Psdd::Mpe mpe = learned.MostProbable(e);
  pins.mpe_probability = mpe.probability;
  pins.mpe_assignment = Bits(mpe.assignment);
  Rng rng(2024);
  for (int i = 0; i < 50; ++i) pins.samples.push_back(Bits(learned.Sample(rng)));
  const std::string params = learned.SerializeParameters();
  pins.params_hash = 0xcbf29ce484222325ull;
  for (unsigned char c : params) {
    pins.params_hash = (pins.params_hash ^ c) * 0x100000001b3ull;
  }
  pins.params_bytes = params.size();
  std::vector<PsddEvidence> partial;
  for (size_t i = 0; i < data.size(); ++i) {
    PsddEvidence x(data[i].size());
    for (size_t v = 0; v < x.size(); ++v) {
      x[v] = data[i][v] ? Obs::kTrue : Obs::kFalse;
    }
    x[i % x.size()] = Obs::kUnknown;
    partial.push_back(x);
  }
  Psdd em(mgr, base);
  pins.em_log_likelihood = em.LearnParametersEm(partial, {}, laplace, 3);
  pins.kl = learned.KlDivergence(Psdd(mgr, base));
  const Psdd product = learned.Multiply(em, &pins.multiply_z);
  pins.multiply_size = product.Size();
  return pins;
}

// The pins as a C++ initializer, to re-record them deliberately.
std::string PinsLiteral(const PsddPins& p) {
  std::string out;
  char buf[64];
  auto hex = [&](double d) {
    std::snprintf(buf, sizeof(buf), "%a, ", d);
    out += buf;
  };
  auto num = [&](uint64_t u) { out += std::to_string(u) + ", "; };
  out += "{";
  hex(p.probability);
  hex(p.evidence);
  out += "\n {";
  for (double m : p.marginals) hex(m);
  out += "},\n ";
  hex(p.mpe_probability);
  num(p.mpe_assignment);
  out += "\n {";
  for (uint64_t s : p.samples) num(s);
  out += "},\n ";
  std::snprintf(buf, sizeof(buf), "0x%016llxull, ",
                static_cast<unsigned long long>(p.params_hash));
  out += buf;
  num(p.params_bytes);
  hex(p.em_log_likelihood);
  hex(p.kl);
  hex(p.multiply_z);
  num(p.multiply_size);
  return out + "}";
}

void ExpectPins(const PsddPins& got, const PsddPins& want) {
  EXPECT_EQ(got.probability, want.probability);
  EXPECT_EQ(got.evidence, want.evidence);
  EXPECT_EQ(got.marginals, want.marginals);
  EXPECT_EQ(got.mpe_probability, want.mpe_probability);
  EXPECT_EQ(got.mpe_assignment, want.mpe_assignment);
  EXPECT_EQ(got.samples, want.samples);
  EXPECT_EQ(got.params_hash, want.params_hash);
  EXPECT_EQ(got.params_bytes, want.params_bytes);
  EXPECT_EQ(got.em_log_likelihood, want.em_log_likelihood);
  EXPECT_EQ(got.kl, want.kl);
  EXPECT_EQ(got.multiply_z, want.multiply_z);
  EXPECT_EQ(got.multiply_size, want.multiply_size);
  if (::testing::Test::HasFailure()) ADD_FAILURE() << PinsLiteral(got);
}

class PsddPinTest : public ::testing::Test, protected LearnedPsdd {};

TEST_F(PsddPinTest, RandomConstraintBase) {
  Build(3, 2);
  PsddEvidence e(kVars, Obs::kUnknown);
  e[0] = data_[0][0] ? Obs::kTrue : Obs::kFalse;
  e[3] = data_[0][3] ? Obs::kTrue : Obs::kFalse;
  const PsddPins want =
      {0x1.c566aaebece1bp-4, 0x1.f958232db19d1p-4,
       {0x1.f958232db19dp-4, 0x1.c566aaebece1bp-4, 0x0p+0, 0x0p+0,
        0x1.f958232db19d1p-4, 0x0p+0},
       0x1.c566aaebece1bp-4, 19,
       {6, 6, 25, 36, 27, 36, 2, 63, 31, 17, 40, 25, 2, 2, 31, 27, 43, 18, 25,
        31, 19, 19, 63, 19, 18, 25, 4, 36, 19, 18, 31, 2, 31, 2, 63, 36, 19,
        4, 63, 18, 2, 36, 27, 8, 63, 6, 40, 19, 36, 18},
       0x44e26e3a97e62514ull, 443, -0x1.79a5837931d04p+7,
       0x1.3f7d2d9c028c8p-3, 0x1.6398842dd5a83p-4, 28};
  ExpectPins(MeasurePins(*mgr_, base_, *psdd_, data_, e, 0.3), want);
}

TEST_F(PsddPinTest, RouteModelBase) {
  // route_model's space and GPS traces.
  const Graph grid = Graph::Grid(4, 4);
  RouteSpace space(grid, 0, 15);
  Rng rng(99);
  std::vector<Assignment> gps;
  const Assignment favorite = space.RandomRoute(rng);
  const Assignment alternate = space.RandomRoute(rng);
  for (int day = 0; day < 200; ++day) {
    gps.push_back(day % 10 == 0  ? space.RandomRoute(rng)
                  : day % 3 == 0 ? alternate
                                 : favorite);
  }
  Psdd psdd = space.MakePsdd();
  psdd.LearnParameters(gps, {}, 0.1);
  // The favorite's first street seen taken and its last untaken street not.
  PsddEvidence e(grid.num_edges(), Obs::kUnknown);
  for (uint32_t s = 0; s < grid.num_edges(); ++s) {
    if (favorite[s]) {
      e[s] = Obs::kTrue;
      break;
    }
  }
  for (uint32_t s = grid.num_edges(); s-- > 0;) {
    if (!favorite[s]) {
      e[s] = Obs::kFalse;
      break;
    }
  }
  const PsddPins want =
      {0x1.9bc0bd600e1e9p-8, 0x1.382a056065e51p-1,
       {0x1.611a55cb19194p-6, 0x1.382a056065e51p-1, 0x1.3383a68962cdcp-1,
        0x1.2d2132b20d1c4p-1, 0x1.2d2132b20d1c4p-1, 0x1.2997b5c0c5d38p-7,
        0x1.3383a68962cdcp-1, 0x1.2dbef8553b4bep-1, 0x1.f6a4df9e2b8dap-8,
        0x1.46d13cf19d5ccp-7, 0x1.420d1f56fc316p-7, 0x1.6be367b66d831p-8,
        0x1.415d61043a3cap-8, 0x1.3231be2bc265fp-1, 0x1.0859449a8ce6bp-8,
        0x1.7d8274496d322p-8, 0x1.7e11cd28dfc84p-7, 0x1.ab5d933e519abp-8,
        0x1.a601b719cd15cp-9, 0x1.04ee3e296de22p-7, 0x1.382a056065e51p-1,
        0x1.ab5d933e519abp-8, 0x1.04ee3e296de22p-7, 0x0p+0},
       0x1.27852aeb44a78p-1, 1056990,
       {8986846, 1056990, 3585269, 1164296, 1056990, 8963491, 3585269,
        1056990, 3585269, 1056990, 1056990, 3585269, 11480428, 3585269,
        3585269, 6112264, 1056990, 1056990, 3585269, 1056990, 3585269,
        12862472, 1056990, 3585269, 1056990, 3585269, 1056990, 1056990,
        1056990, 1056839, 8986846, 8917726, 3585269, 1056990, 1056990,
        1056990, 1056990, 1056990, 1056990, 3585269, 1056990, 3585269,
        3585269, 1056990, 1056990, 1056990, 1056990, 1056990, 3585269,
        3585269},
       0xe14bc522424363bbull, 3215, -0x1.165fa7a8e496ep+8,
       0x1.d91d24f28508ap+1, 0x1.b078db5a25b2bp-2, 268};
  ExpectPins(MeasurePins(space.sdd(), space.base(), psdd, gps, e, 0.1), want);
}

}  // namespace
}  // namespace tbc
