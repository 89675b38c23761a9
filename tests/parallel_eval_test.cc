// Evaluation and compilation under threads. The query kernels run on
// their caller's thread: a guard cancelled before the call refuses with
// the typed status, and a cancel from a sibling thread either lets the
// pass finish bit-exactly or stops it with that status. Independent SDD
// compiles on several threads share only the process-wide auto-minimize
// default and the sdd.minimize.* counters; under -DTBC_SANITIZE=thread
// these tests double as data-race checks on that shared state.

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "base/guard.h"
#include "base/random.h"
#include "base/result.h"
#include "compiler/ddnnf_compiler.h"
#include "gtest/gtest.h"
#include "logic/cnf.h"
#include "nnf/nnf.h"
#include "nnf/queries.h"
#include "sdd/compile.h"
#include "sdd/sdd.h"
#include "vtree/vtree.h"

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

TEST(ParallelEvalTest, PreCancelledGuardRefusesBeforeWork) {
  const size_t kVars = 16;
  const Cnf cnf = RandomCnf(kVars, 40, 31);
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, mgr);

  Guard guard;
  guard.Cancel();
  const Result<BigUint> r = ModelCountBounded(mgr, root, kVars, guard);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error_code(), StatusCode::kCancelled);
}

TEST(ParallelEvalTest, PreCancelledGuardRefusesMarginals) {
  const size_t kVars = 16;
  const Cnf cnf = RandomCnf(kVars, 40, 31);
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, mgr);

  Guard guard;
  guard.Cancel();
  const Result<std::vector<double>> r =
      MarginalWmcBounded(mgr, root, RandomWeights(kVars, 32), guard);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error_code(), StatusCode::kCancelled);
}

TEST(ParallelEvalTest, CrossThreadCancelOfWmcIsExactOrTyped) {
  // A sibling thread cancels the guard at a seed-derived delay while the
  // WMC pass runs. The result is either the bit-exact unbounded answer or
  // the typed refusal, for every seed, with no third possibility.
  const size_t kVars = 24;
  const Cnf cnf = RandomCnf(kVars, 60, 41);
  const WeightMap w = RandomWeights(kVars, 42);
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, mgr);
  const double exact = Wmc(mgr, root, w);

  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Guard guard;
    std::atomic<bool> go{false};
    std::thread canceller([&guard, &go, seed] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(seed * 37));
      guard.Cancel();
    });
    go.store(true, std::memory_order_release);
    const Result<double> r = WmcBounded(mgr, root, w, guard);
    canceller.join();
    if (r.ok()) {
      EXPECT_EQ(*r, exact) << "seed=" << seed;
    } else {
      EXPECT_EQ(r.error_code(), StatusCode::kCancelled) << "seed=" << seed;
    }
  }
}

TEST(ParallelEvalTest, AutoMinimizeDuringParallelCompilesIsRaceFree) {
  // Each thread owns its manager, but all of them copy the process-wide
  // auto-minimize default at construction and bump the shared
  // sdd.minimize.* counters while rotating: the paths TSan must see
  // overlap cleanly.
  const SddAutoMinimizeOptions saved = SddManager::DefaultAutoMinimize();
  SddAutoMinimizeOptions opts =
      SddAutoMinimizeOptions::ForMode(SddMinimizeMode::kAggressive);
  opts.min_live_nodes = 32;  // fire even on these small instances
  SddManager::SetDefaultAutoMinimize(opts);

  constexpr size_t kVars = 14;
  constexpr size_t kThreads = 4;
  std::vector<uint64_t> counts(8, 0);
  std::vector<size_t> fires(counts.size(), 0);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < counts.size(); i += kThreads) {
        const Cnf cnf = RandomCnf(kVars, 36, 700 + i);
        SddManager mgr(Vtree::RightLinear(Vtree::IdentityOrder(kVars)));
        const SddId f = CompileCnf(mgr, cnf);
        counts[i] = mgr.ModelCount(f).ToU64();
        fires[i] = mgr.auto_minimize_fires();
      }
    });
  }
  for (auto& w : workers) w.join();
  SddManager::SetDefaultAutoMinimize(saved);

  size_t total_fires = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    // Reference with minimization off: same function either way.
    SddManager ref(Vtree::RightLinear(Vtree::IdentityOrder(kVars)));
    ref.set_auto_minimize(SddAutoMinimizeOptions{});
    const Cnf cnf = RandomCnf(kVars, 36, 700 + i);
    EXPECT_EQ(counts[i], ref.ModelCount(CompileCnf(ref, cnf)).ToU64())
        << "compile " << i;
    total_fires += fires[i];
  }
  EXPECT_GT(total_fires, 0u);  // the hook actually ran under contention
}

}  // namespace
}  // namespace tbc
