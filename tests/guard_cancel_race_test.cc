// Cross-thread cancellation stress tests for Guard. These are ordinary
// correctness tests under a plain build, but their real purpose is a
// -DTBC_SANITIZE=thread build: many threads hammer one Guard's charge
// counters and poll paths while another thread flips the cancellation
// flag, and TSan verifies the atomics carry no data race.

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "base/guard.h"
#include "base/random.h"
#include "base/result.h"
#include "gtest/gtest.h"
#include "logic/cnf.h"
#include "sat/solver.h"
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

TEST(GuardCancelRace, ConcurrentChargesSurviveCancellation) {
  constexpr int kThreads = 8;
  constexpr uint64_t kChargesPerThread = 50000;

  Guard guard(Budget::TimeLimit(60000.0));
  std::atomic<int> cancelled_seen{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&guard, &cancelled_seen] {
      bool saw_cancel = false;
      for (uint64_t i = 0; i < kChargesPerThread; ++i) {
        // Exercise every concurrent entry point: charges, the amortized
        // poll, the exact check, and the read-side accessors.
        (void)guard.ChargeNodes(1);
        (void)guard.ChargeConflict();
        (void)guard.ChargeDecision();
        (void)guard.Poll();
        (void)guard.RemainingMs();
        (void)guard.nodes_charged();
        if (guard.Check().code() == StatusCode::kCancelled) saw_cancel = true;
      }
      if (saw_cancel) cancelled_seen.fetch_add(1);
    });
  }
  // Flip the flag while the workers are mid-hammer.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  guard.Cancel();
  for (auto& w : workers) w.join();

  EXPECT_TRUE(guard.cancelled());
  EXPECT_EQ(guard.Check().code(), StatusCode::kCancelled);
  // Charges are never lost, cancelled or not: the counters are exact.
  EXPECT_EQ(guard.nodes_charged(), kThreads * kChargesPerThread);
  EXPECT_EQ(guard.conflicts_charged(), kThreads * kChargesPerThread);
  EXPECT_EQ(guard.decisions_charged(), kThreads * kChargesPerThread);
}

TEST(GuardCancelRace, CancelIsIdempotentAcrossThreads) {
  Guard guard;
  std::vector<std::thread> cancellers;
  for (int t = 0; t < 8; ++t) {
    cancellers.emplace_back([&guard] {
      for (int i = 0; i < 1000; ++i) guard.Cancel();
    });
  }
  for (auto& c : cancellers) c.join();
  EXPECT_TRUE(guard.cancelled());
}

TEST(GuardCancelRace, CrossThreadCancelStopsSatSearch) {
  // A large satisfiable-ish instance at the hard ratio: without
  // cancellation this solves, with a prompt cancel it must refuse with
  // the typed kCancelled status rather than crash or spin.
  const Cnf cnf = RandomCnf(160, 680, 21);
  Guard guard;
  SatSolver solver;
  solver.set_guard(&guard);
  solver.AddCnf(cnf);

  SatSolver::Outcome outcome = SatSolver::Outcome::kUnknown;
  std::thread worker([&] { outcome = solver.Solve(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  guard.Cancel();
  worker.join();

  if (outcome == SatSolver::Outcome::kUnknown) {
    EXPECT_EQ(solver.interrupt_status().code(), StatusCode::kCancelled);
  }
  // Either way the solver must remain usable after detaching the guard.
  solver.set_guard(nullptr);
  EXPECT_NE(solver.Solve(), SatSolver::Outcome::kUnknown);
}

TEST(GuardCancelRace, CrossThreadCancelStopsSddCompile) {
  const Cnf cnf = RandomCnf(40, 170, 5);
  SddManager mgr(Vtree::Balanced(Vtree::IdentityOrder(40)));
  Guard guard;

  Result<SddId> result = Status::Cancelled("not started");
  std::thread worker([&] { result = CompileCnfBounded(mgr, cnf, guard); });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  guard.Cancel();
  worker.join();

  // The compile either finished before the cancel landed or refused with
  // the typed cancellation status; anything else is a bug.
  if (!result.ok()) {
    EXPECT_EQ(result.error_code(), StatusCode::kCancelled);
  }
}

}  // namespace
}  // namespace tbc
