// Resource-governance tests: Budget/Guard units, Result<T> ergonomics, and
// the end-to-end contracts of ISSUE — a hard instance under a tiny budget
// returns a typed refusal (never an abort or a hang), cross-thread
// cancellation stops the CDCL search promptly, and the same instances still
// compile correctly once the budget is lifted.

#include <thread>
#include <vector>

#include "base/guard.h"
#include "base/random.h"
#include "base/result.h"
#include "base/timer.h"
#include "compiler/ddnnf_compiler.h"
#include "compiler/model_counter.h"
#include "gtest/gtest.h"
#include "logic/cnf.h"
#include "nnf/nnf.h"
#include "nnf/queries.h"
#include "obdd/obdd.h"
#include "sat/solver.h"
#include "sdd/compile.h"
#include "sdd/minimize.h"
#include "sdd/sdd.h"
#include "vtree/vtree.h"
#include "xai/compile.h"

namespace tbc {
namespace {

// Random k-CNF with distinct variables per clause. At ratio ~4.26 and k=3
// this sits at the satisfiability phase transition, where CDCL search and
// compilation are hardest.
Cnf RandomCnf(size_t num_vars, size_t num_clauses, uint64_t seed) {
  Rng rng(seed);
  Cnf cnf(num_vars);
  for (size_t i = 0; i < num_clauses; ++i) {
    Clause c;
    while (c.size() < 3) {
      const Var v = static_cast<Var>(rng.Below(num_vars));
      bool fresh = true;
      for (Lit l : c) fresh = fresh && l.var() != v;
      if (fresh) c.push_back(Lit(v, rng.Flip(0.5)));
    }
    cnf.AddClause(std::move(c));
  }
  return cnf;
}

TEST(Budget, ZeroMeansUnlimited) {
  Guard guard(Budget::Unlimited());
  EXPECT_FALSE(guard.has_deadline());
  EXPECT_TRUE(guard.Check().ok());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(guard.ChargeNodes(1000).ok());
}

TEST(Guard, NodeBudgetTripsExactly) {
  Guard guard(Budget::NodeLimit(100));
  EXPECT_TRUE(guard.ChargeNodes(100).ok());
  const Status s = guard.ChargeNodes(1);
  EXPECT_EQ(s.code(), StatusCode::kBudgetExceeded);
  EXPECT_TRUE(s.IsRefusal());
}

TEST(Guard, DeadlineTripsAfterExpiry) {
  Guard guard(Budget::TimeLimit(1.0));
  Timer timer;
  while (timer.Millis() < 5.0) {
  }
  const Status s = guard.Check();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(guard.RemainingMs(), 0.0);
}

TEST(Guard, CancelIsSticky) {
  Guard guard;
  EXPECT_TRUE(guard.Check().ok());
  guard.Cancel();
  EXPECT_EQ(guard.Check().code(), StatusCode::kCancelled);
  EXPECT_EQ(guard.ChargeNodes().code(), StatusCode::kCancelled);
  EXPECT_EQ(guard.Poll().code(), StatusCode::kCancelled);
}

TEST(Guard, ForRangePollsOncePerGrain) {
  Guard guard;
  std::vector<int> hits(103, 0);
  ASSERT_TRUE(ForRange(guard, 3, hits.size(), 7, [&](size_t i) { hits[i]++; })
                  .ok());
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], i < 3 ? 0 : 1);

  // A cancel inside the grain [8, 12) lets that grain finish; the poll
  // before the next grain refuses, and no later index runs.
  size_t ran = 0;
  const Status s = ForRange(guard, 0, 100, 4, [&](size_t i) {
    ++ran;
    if (i == 10) guard.Cancel();
  });
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_EQ(ran, 12u);
}

TEST(Guard, ConflictAndDecisionBudgets) {
  Budget budget;
  budget.max_conflicts = 3;
  budget.max_decisions = 5;
  Guard guard(budget);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(guard.ChargeConflict().ok());
  EXPECT_EQ(guard.ChargeConflict().code(), StatusCode::kBudgetExceeded);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(guard.ChargeDecision().ok());
  EXPECT_EQ(guard.ChargeDecision().code(), StatusCode::kBudgetExceeded);
  EXPECT_EQ(guard.conflicts_charged(), 4u);
  EXPECT_EQ(guard.decisions_charged(), 6u);
}

TEST(Result, ErgonomicsValueOrAndErrorCode) {
  Result<int> good(42);
  EXPECT_EQ(good.value_or(-1), 42);
  EXPECT_EQ(good.error_code(), StatusCode::kOk);
  EXPECT_EQ(*good, 42);

  Result<int> bad(Status::BudgetExceeded("too big"));
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_EQ(bad.error_code(), StatusCode::kBudgetExceeded);
  EXPECT_TRUE(bad.status().IsRefusal());
}

Status PropagatesError(bool fail) {
  TBC_RETURN_IF_ERROR(fail ? Status::InvalidInput("nope") : Status::Ok());
  return Status::Ok();
}

Result<int> PropagatesResult(Result<int> r) {
  TBC_ASSIGN_OR_RETURN(const int x, std::move(r));
  return x + 1;
}

TEST(Result, ReturnIfErrorAndAssignOrReturn) {
  EXPECT_TRUE(PropagatesError(false).ok());
  EXPECT_EQ(PropagatesError(true).code(), StatusCode::kInvalidInput);
  EXPECT_EQ(*PropagatesResult(41), 42);
  EXPECT_EQ(PropagatesResult(Status::Cancelled("stop")).error_code(),
            StatusCode::kCancelled);
}

// --- CDCL under governance -------------------------------------------------

TEST(SolverGovernance, ConflictBudgetReturnsUnknown) {
  const Cnf cnf = RandomCnf(60, 256, 7);
  SatSolver solver;
  solver.AddCnf(cnf);
  Budget budget;
  budget.max_conflicts = 5;
  Guard guard(budget);
  solver.set_guard(&guard);
  const SatSolver::Outcome outcome = solver.Solve();
  EXPECT_EQ(outcome, SatSolver::Outcome::kUnknown);
  EXPECT_EQ(solver.interrupt_status().code(), StatusCode::kBudgetExceeded);
  // Without the guard the same solver object finishes and gives a real
  // answer — no leaked state from the interrupted run.
  solver.set_guard(nullptr);
  EXPECT_NE(solver.Solve(), SatSolver::Outcome::kUnknown);
}

TEST(SolverGovernance, CrossThreadCancellationStopsPromptly) {
  // A hard unsatisfiable-ish pigeonhole-style workload: random 3-CNF past
  // the phase transition with many variables keeps CDCL busy long enough
  // to observe the cancellation.
  const Cnf cnf = RandomCnf(120, 516, 11);
  SatSolver solver;
  solver.AddCnf(cnf);
  Guard guard;
  solver.set_guard(&guard);
  Timer timer;
  std::thread canceller([&guard] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    guard.Cancel();
  });
  const SatSolver::Outcome outcome = solver.Solve();
  canceller.join();
  // Either the instance solved before the cancel landed, or the search
  // stopped with the typed cancellation status — promptly either way.
  if (outcome == SatSolver::Outcome::kUnknown) {
    EXPECT_EQ(solver.interrupt_status().code(), StatusCode::kCancelled);
  }
  EXPECT_LT(timer.Millis(), 5000.0);
}

// --- Compilation under governance ------------------------------------------

TEST(CompilerGovernance, TinyNodeBudgetRefusesHardCnf) {
  const Cnf cnf = RandomCnf(60, 256, 3);
  NnfManager mgr;
  DdnnfCompiler compiler;
  Guard guard(Budget::NodeLimit(50));
  auto r = compiler.CompileBounded(cnf, mgr, guard);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error_code(), StatusCode::kBudgetExceeded);
}

TEST(CompilerGovernance, DeadlineRefusalIsPromptAndCleanOnHardCnf) {
  // The ISSUE acceptance criterion: a phase-transition 3-CNF (60+ vars)
  // under a 100 ms deadline must come back kDeadlineExceeded promptly,
  // without aborting. The wall-clock bound is generous because ctest -j
  // runs this under heavy scheduler contention.
  const Cnf cnf = RandomCnf(80, 341, 5);
  NnfManager mgr;
  DdnnfCompiler compiler;
  Guard guard(Budget::TimeLimit(100.0));
  Timer timer;
  auto r = compiler.CompileBounded(cnf, mgr, guard);
  const double elapsed = timer.Millis();
  if (!r.ok()) {
    EXPECT_EQ(r.error_code(), StatusCode::kDeadlineExceeded);
    EXPECT_LT(elapsed, 1000.0);
  }
  // (If the machine is fast enough to finish inside 100 ms, the compile
  // simply succeeds — also a valid outcome of a soft deadline.)
}

TEST(CompilerGovernance, UnboundedCompileStillCorrect) {
  // The governance plumbing must not change semantics: compile a sibling
  // instance small enough to verify by brute force, with and without a
  // (generous) guard, and compare counts.
  const Cnf cnf = RandomCnf(16, 68, 9);
  const uint64_t expected = cnf.CountModelsBruteForce();

  NnfManager mgr;
  DdnnfCompiler compiler;
  Guard generous(Budget::TimeLimit(60000.0));
  auto bounded = compiler.CompileBounded(cnf, mgr, generous);
  ASSERT_TRUE(bounded.ok()) << bounded.status().message();
  EXPECT_EQ(ModelCount(mgr, *bounded, cnf.num_vars()).ToString(),
            std::to_string(expected));

  NnfManager mgr2;
  const NnfId unbounded = compiler.Compile(cnf, mgr2);
  EXPECT_EQ(ModelCount(mgr2, unbounded, cnf.num_vars()).ToString(),
            std::to_string(expected));
}

TEST(CompilerGovernance, ModelCounterBudgets) {
  const Cnf hard = RandomCnf(60, 256, 13);
  ModelCounter counter;
  Guard tiny(Budget::NodeLimit(20));
  auto refused = counter.CountBounded(hard, tiny);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsRefusal());

  const Cnf small = RandomCnf(14, 59, 15);
  Guard roomy;
  auto counted = counter.CountBounded(small, roomy);
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->ToString(), std::to_string(small.CountModelsBruteForce()));
}

TEST(SddGovernance, NodeBudgetRefusesAndManagerStaysUsable) {
  const Cnf cnf = RandomCnf(40, 170, 17);
  SddManager mgr(Vtree::Balanced(Vtree::IdentityOrder(cnf.num_vars())));
  Guard tiny(Budget::NodeLimit(64));
  auto r = CompileCnfBounded(mgr, cnf, tiny);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error_code(), StatusCode::kBudgetExceeded);
  EXPECT_FALSE(mgr.interrupted());  // CompileCnfBounded cleared the latch

  // The same manager still compiles a small formula correctly afterwards:
  // the interruption did not pollute the canonical caches. By canonicity
  // the guarded compile must return the very same node as the unbounded
  // one.
  Cnf tiny_cnf(2);
  tiny_cnf.AddClause({Lit(0, true), Lit(1, true)});
  Guard fresh;
  auto ok = CompileCnfBounded(mgr, tiny_cnf, fresh);
  ASSERT_TRUE(ok.ok()) << ok.status().message();
  EXPECT_EQ(*ok, CompileCnf(mgr, tiny_cnf));
  EXPECT_NE(*ok, mgr.False());
}

TEST(SddGovernance, MinimizeReturnsBestSoFarOnDeadline) {
  const Cnf cnf = RandomCnf(20, 60, 19);
  const Vtree initial = Vtree::Balanced(Vtree::IdentityOrder(cnf.num_vars()));
  Guard guard(Budget::TimeLimit(50.0));
  const MinimizeResult r = MinimizeVtree(cnf, initial, 1000000, 23, guard);
  EXPECT_TRUE(r.interrupted);
  EXPECT_TRUE(r.interrupt_status.IsRefusal());
  if (r.size > 0) {
    // Best-so-far is a real vtree over the same variables.
    EXPECT_EQ(r.vtree.num_vars(), cnf.num_vars());
  }
}

TEST(XaiGovernance, BruteForceRejectsOversizedAndCancels) {
  BooleanClassifier big;
  big.num_features = 30;
  big.classify = [](const Assignment&) { return true; };
  ObddManager mgr(Vtree::IdentityOrder(30));
  Guard guard;
  auto r = CompileBruteForceBounded(big, mgr, guard);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error_code(), StatusCode::kInvalidInput);

  BooleanClassifier parity;
  parity.num_features = 18;
  parity.classify = [](const Assignment& x) {
    bool p = false;
    for (bool b : x) p ^= b;
    return p;
  };
  ObddManager mgr2(Vtree::IdentityOrder(18));
  Guard cancelled;
  cancelled.Cancel();
  auto c = CompileBruteForceBounded(parity, mgr2, cancelled);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.error_code(), StatusCode::kCancelled);

  Guard roomy;
  auto ok = CompileBruteForceBounded(parity, mgr2, roomy);
  ASSERT_TRUE(ok.ok());
  // Parity has 2^17 models over 18 variables.
  EXPECT_EQ(mgr2.ModelCount(*ok).ToString(), std::to_string(1u << 17));
}

}  // namespace
}  // namespace tbc
