// Determinism and cancellation tests for the parallel evaluation kernels.
// The contract under test (DESIGN.md "Kernel layer"): for every query, a
// pool of 1, 2, or 8 threads produces *bit-identical* results — identical
// BigUint model counts, identical WMC doubles, identical MPE assignments,
// identical PSDD likelihood vectors — because each parallel body writes
// only its own slot and all reductions run serially in index order. Under
// -DTBC_SANITIZE=thread these tests double as data-race checks on the
// shared read-only circuit state.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/guard.h"
#include "base/random.h"
#include "base/result.h"
#include "base/thread_pool.h"
#include "bayes/circuit_inference.h"
#include "bayes/network.h"
#include "compiler/ddnnf_compiler.h"
#include "gtest/gtest.h"
#include "logic/cnf.h"
#include "nnf/nnf.h"
#include "nnf/queries.h"
#include "psdd/psdd.h"
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

constexpr size_t kThreadSweep[] = {1, 2, 8};

TEST(ParallelEvalTest, ModelCountIdenticalAcrossThreadCounts) {
  const size_t kVars = 24;
  const Cnf cnf = RandomCnf(kVars, 60, 11);
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, mgr);

  Guard unlimited;
  const BigUint serial = ModelCount(mgr, root, kVars);
  for (size_t threads : kThreadSweep) {
    ThreadPool pool(threads);
    const Result<BigUint> parallel =
        ModelCountBounded(mgr, root, kVars, unlimited, &pool);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(*parallel, serial) << "threads=" << threads;
  }
}

TEST(ParallelEvalTest, WmcBitIdenticalAcrossThreadCounts) {
  const size_t kVars = 24;
  const Cnf cnf = RandomCnf(kVars, 60, 13);
  const WeightMap w = RandomWeights(kVars, 14);
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, mgr);

  Guard unlimited;
  const double serial = Wmc(mgr, root, w);
  for (size_t threads : kThreadSweep) {
    ThreadPool pool(threads);
    const Result<double> parallel = WmcBounded(mgr, root, w, unlimited, &pool);
    ASSERT_TRUE(parallel.ok());
    // Bit-identical, not merely close: same per-node recurrence, same
    // child order, only slot-level parallelism.
    EXPECT_EQ(*parallel, serial) << "threads=" << threads;
  }
}

TEST(ParallelEvalTest, MpeBitIdenticalAcrossThreadCounts) {
  const size_t kVars = 20;
  const Cnf cnf = RandomCnf(kVars, 50, 17);
  const WeightMap w = RandomWeights(kVars, 18);
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, mgr);

  Guard unlimited;
  const MpeResult serial = MaxWmc(mgr, root, w, kVars);
  for (size_t threads : kThreadSweep) {
    ThreadPool pool(threads);
    const Result<MpeResult> parallel =
        MaxWmcBounded(mgr, root, w, kVars, unlimited, &pool);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->weight, serial.weight) << "threads=" << threads;
    EXPECT_EQ(parallel->assignment, serial.assignment) << "threads=" << threads;
  }
}

TEST(ParallelEvalTest, PsddLikelihoodsIdenticalAcrossThreadCounts) {
  // Compile a small constraint, learn parameters from sampled data, then
  // sweep thread counts over both batch APIs.
  const size_t kVars = 8;
  const Cnf cnf = RandomCnf(kVars, 12, 23);
  SddManager sdd(Vtree::Balanced(Vtree::IdentityOrder(kVars)));
  const SddId base = CompileCnf(sdd, cnf);
  ASSERT_NE(base, sdd.False());
  Psdd psdd(sdd, base);

  Rng rng(29);
  std::vector<Assignment> data;
  for (int i = 0; i < 64; ++i) data.push_back(psdd.Sample(rng));
  psdd.LearnParameters(data, {}, 0.5);

  Guard unlimited;
  const double serial_ll = psdd.LogLikelihood(data);

  std::vector<PsddEvidence> evidence;
  for (int i = 0; i < 32; ++i) {
    PsddEvidence e(kVars, Obs::kUnknown);
    for (Var v = 0; v < kVars; ++v) {
      const uint64_t r = rng.Below(3);
      e[v] = r == 0 ? Obs::kFalse : r == 1 ? Obs::kTrue : Obs::kUnknown;
    }
    evidence.push_back(e);
  }
  const Result<std::vector<double>> serial_batch =
      psdd.ProbabilityEvidenceBatch(evidence, unlimited);
  ASSERT_TRUE(serial_batch.ok());

  for (size_t threads : kThreadSweep) {
    ThreadPool pool(threads);
    const Result<double> ll = psdd.LogLikelihoodBounded(data, unlimited, &pool);
    ASSERT_TRUE(ll.ok());
    EXPECT_EQ(*ll, serial_ll) << "threads=" << threads;

    const Result<std::vector<double>> batch =
        psdd.ProbabilityEvidenceBatch(evidence, unlimited, &pool);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(*batch, *serial_batch) << "threads=" << threads;
  }
}

TEST(ParallelEvalTest, BayesBatchMarIdenticalAcrossThreadCounts) {
  // A small chain network; the batch enumerates single-variable evidence.
  BayesianNetwork net;
  const BnVar a = net.AddVariable("a", 2, {}, {0.3, 0.7});
  const BnVar b = net.AddVariable("b", 2, {a}, {0.9, 0.1, 0.2, 0.8});
  net.AddVariable("c", 2, {b}, {0.6, 0.4, 0.25, 0.75});
  CompiledBayesNet compiled(net);

  std::vector<BnInstantiation> evidence;
  for (BnVar v = 0; v < 3; ++v) {
    for (int value = 0; value < 2; ++value) {
      BnInstantiation e(3, kUnobserved);
      e[v] = value;
      evidence.push_back(e);
    }
  }
  Guard unlimited;
  const Result<std::vector<double>> serial =
      compiled.ProbEvidenceBatch(evidence, unlimited);
  ASSERT_TRUE(serial.ok());
  for (size_t i = 0; i < evidence.size(); ++i) {
    EXPECT_DOUBLE_EQ((*serial)[i], compiled.ProbEvidence(evidence[i]));
  }
  for (size_t threads : kThreadSweep) {
    ThreadPool pool(threads);
    const Result<std::vector<double>> batch =
        compiled.ProbEvidenceBatch(evidence, unlimited, &pool);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(*batch, *serial) << "threads=" << threads;
  }
}

TEST(ParallelEvalTest, PreCancelledGuardRefusesBeforeWork) {
  const size_t kVars = 16;
  const Cnf cnf = RandomCnf(kVars, 40, 31);
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, mgr);

  Guard guard;
  guard.Cancel();
  ThreadPool pool(4);
  const Result<BigUint> r = ModelCountBounded(mgr, root, kVars, guard, &pool);
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

TEST(ParallelEvalTest, MidRunCancellationStopsBatch) {
  // A deliberately large batch over a real circuit; a second thread flips
  // the guard mid-run. The batch must refuse with the typed status (or
  // have finished before the cancel landed) — never crash or deadlock.
  const size_t kVars = 8;
  const Cnf cnf = RandomCnf(kVars, 12, 37);
  SddManager sdd(Vtree::Balanced(Vtree::IdentityOrder(kVars)));
  const SddId base = CompileCnf(sdd, cnf);
  ASSERT_NE(base, sdd.False());
  Psdd psdd(sdd, base);

  std::vector<PsddEvidence> evidence(20000, PsddEvidence(kVars, Obs::kUnknown));
  Guard guard;
  ThreadPool pool(4);
  Result<std::vector<double>> result = Status::Cancelled("not started");
  std::thread worker([&] {
    result = psdd.ProbabilityEvidenceBatch(evidence, guard, &pool);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  guard.Cancel();
  worker.join();
  if (!result.ok()) {
    EXPECT_EQ(result.error_code(), StatusCode::kCancelled);
  } else {
    EXPECT_EQ(result->size(), evidence.size());
  }
  // The pool and guard-free paths must remain usable afterwards.
  Guard fresh;
  const Result<std::vector<double>> again = psdd.ProbabilityEvidenceBatch(
      {PsddEvidence(kVars, Obs::kUnknown)}, fresh, &pool);
  ASSERT_TRUE(again.ok());
  EXPECT_NEAR((*again)[0], 1.0, 1e-12);
}

// --- ParallelFor exception contract (base/thread_pool.h) ------------------

TEST(ParallelForExceptionTest, RethrowsFirstErrorDeterministically) {
  // Every index at or above the threshold throws its own index. The
  // exception that surfaces must be the threshold's — the one a serial
  // run would hit first — on every repetition, at any thread count.
  ThreadPool pool(8);
  for (const size_t threshold : {size_t{0}, size_t{1}, size_t{7},
                                 size_t{499}, size_t{998}, size_t{999}}) {
    for (int round = 0; round < 8; ++round) {
      std::string caught;
      try {
        (void)pool.ParallelFor(0, 1000, 1, [threshold](size_t i) {
          if (i >= threshold) throw std::runtime_error(std::to_string(i));
        });
      } catch (const std::runtime_error& e) {
        caught = e.what();
      }
      EXPECT_EQ(caught, std::to_string(threshold))
          << "threshold " << threshold << " round " << round;
    }
  }
}

TEST(ParallelForExceptionTest, ExceptionOutranksConcurrentCancel) {
  // A shard failure that also trips the guard (sibling-arm teardown is the
  // real-world shape) must surface the exception, not the cancellation —
  // reporting kCancelled would hide the root cause.
  ThreadPool pool(4);
  for (int round = 0; round < 8; ++round) {
    Guard guard;
    bool threw = false;
    try {
      (void)pool.ParallelFor(
          0, 1000, 1,
          [&guard](size_t i) {
            if (i == 0) {
              guard.Cancel();
              throw std::runtime_error("shard failure");
            }
          },
          &guard);
    } catch (const std::runtime_error& e) {
      threw = true;
      EXPECT_STREQ(e.what(), "shard failure");
    }
    EXPECT_TRUE(threw) << "round " << round;
  }
}

TEST(ParallelForExceptionTest, PoolIsReusableAfterException) {
  // A throwing batch must not deadlock the pool or poison later batches.
  ThreadPool pool(4);
  bool threw = false;
  try {
    (void)pool.ParallelFor(0, 100, 1, [](size_t i) {
      if (i == 57) throw std::runtime_error("57");
    });
  } catch (const std::runtime_error&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
  std::vector<int> out(1000, 0);
  const Status s =
      pool.ParallelFor(0, 1000, 8, [&out](size_t i) { out[i] = 1; });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(std::count(out.begin(), out.end(), 1), 1000);
}

// --- Guard deadline expiry racing normal completion -----------------------
//
// The ParallelFor contract: a guard trip observed at any chunk boundary
// makes the call return the guard's typed status *even when every index
// already ran* — the final Check() decides, not a race. These tests pin
// that down deterministically: the trip is seed-placed inside the batch,
// so the outcome is a pure function of the seed and must be identical at
// every thread count in kThreadSweep. Under -DTBC_SANITIZE=thread they
// double as data-race checks on the cancel/claim handshake.

TEST(ParallelForGuardRaceTest, SeededTripRacingCompletionIsDeterministic) {
  constexpr size_t kIndices = 512;
  constexpr size_t kGrain = 16;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    // Trip index in [0, 2*kIndices): the upper half never fires, so both
    // the refusal arm and the clean-completion arm are exercised.
    Rng rng(seed);
    const size_t trip_at = rng.Below(2 * kIndices);
    std::vector<StatusCode> outcomes;
    for (size_t threads : kThreadSweep) {
      ThreadPool pool(threads);
      Guard guard;
      std::vector<uint64_t> out(kIndices, 0);
      const Status s = pool.ParallelFor(
          0, kIndices, kGrain,
          [&guard, trip_at, &out](size_t i) {
            // Each body writes only its own slot; the trip lands while
            // sibling chunks are mid-flight.
            if (i == trip_at) guard.Cancel();
            out[i] = i * i + 1;
          },
          &guard);
      if (trip_at < kIndices) {
        // The cancelling index always runs, so the guard is always seen
        // tripped by the final check — a deterministic typed refusal even
        // if every other chunk finished first.
        ASSERT_FALSE(s.ok()) << "seed=" << seed << " threads=" << threads;
        EXPECT_EQ(s.code(), StatusCode::kCancelled);
        EXPECT_TRUE(s.IsRefusal());
        // No torn slots: every index either ran to completion or never
        // started. The cancelling index itself always completed.
        for (size_t i = 0; i < kIndices; ++i) {
          EXPECT_TRUE(out[i] == 0 || out[i] == i * i + 1) << "slot " << i;
        }
        EXPECT_EQ(out[trip_at], trip_at * trip_at + 1);
      } else {
        ASSERT_TRUE(s.ok()) << "seed=" << seed << " threads=" << threads
                            << ": " << s.message();
        for (size_t i = 0; i < kIndices; ++i) {
          ASSERT_EQ(out[i], i * i + 1) << "slot " << i;
        }
      }
      outcomes.push_back(s.code());
    }
    // Same seed, same outcome, at 1, 2, and 8 lanes.
    for (size_t t = 1; t < outcomes.size(); ++t) {
      EXPECT_EQ(outcomes[t], outcomes[0]) << "seed=" << seed;
    }
  }
}

TEST(ParallelForGuardRaceTest, DeadlineExpiryRacingCompletionIsTypedOrClean) {
  // A real wall-clock deadline armed to expire *during* the batch. Which
  // side wins is timing-dependent by nature, so the assertion is the
  // contract envelope: the call returns either Ok with every slot written
  // or the typed kDeadlineExceeded — never a crash, a partial "success",
  // or a foreign status. Both arms are forced to occur at least once via
  // an already-expired and an effectively-unlimited control budget.
  constexpr size_t kIndices = 256;
  for (size_t threads : kThreadSweep) {
    ThreadPool pool(threads);
    bool saw_refusal = false;
    bool saw_success = false;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      // seed 1: pre-expired (refusal certain after the first chunk);
      // seed 2: generous (completion certain); others: a genuine race.
      const double timeout_ms = seed == 1 ? 0.001 : seed == 2 ? 10000.0
                                : 0.2 + 0.15 * static_cast<double>(seed);
      Guard guard(Budget::TimeLimit(timeout_ms));
      if (seed == 1) {
        // Burn past the deadline before the batch starts.
        while (guard.RemainingMs() > 0.0) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
      std::vector<uint32_t> out(kIndices, 0);
      const Status s = pool.ParallelFor(
          0, kIndices, 4,
          [&out](size_t i) {
            // ~tens of microseconds of real work per index so the sweep
            // straddles the sub-millisecond deadlines above.
            uint64_t acc = i + 1;
            for (int k = 0; k < 400; ++k) acc = acc * 6364136223846793005ULL + 1;
            out[i] = static_cast<uint32_t>(acc | 1);
          },
          &guard);
      if (s.ok()) {
        saw_success = true;
        for (size_t i = 0; i < kIndices; ++i) {
          ASSERT_NE(out[i], 0u) << "ok status with unwritten slot " << i;
        }
      } else {
        saw_refusal = true;
        EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded)
            << "seed=" << seed << ": " << s.message();
        EXPECT_TRUE(s.IsRefusal());
      }
    }
    EXPECT_TRUE(saw_refusal) << "threads=" << threads
                             << ": pre-expired control never refused";
    EXPECT_TRUE(saw_success) << "threads=" << threads
                             << ": generous control never completed";
  }
}

TEST(ParallelForGuardRaceTest, KernelRefusalUnderSeededTripMatchesSweep) {
  // Same determinism property one layer up: a real query kernel with a
  // guard tripped from a sibling thread at a seed-derived delay. The
  // result is either the bit-exact serial answer or the typed refusal —
  // at every thread count, for every seed, with no third possibility.
  const size_t kVars = 24;
  const Cnf cnf = RandomCnf(kVars, 60, 41);
  const WeightMap w = RandomWeights(kVars, 42);
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, mgr);
  Guard unlimited;
  const double serial = Wmc(mgr, root, w);

  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (size_t threads : kThreadSweep) {
      ThreadPool pool(threads);
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
      const Result<double> r = WmcBounded(mgr, root, w, guard, &pool);
      canceller.join();
      if (r.ok()) {
        EXPECT_EQ(*r, serial) << "seed=" << seed << " threads=" << threads;
      } else {
        EXPECT_EQ(r.error_code(), StatusCode::kCancelled)
            << "seed=" << seed << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelForExceptionTest, SingleLaneInlinePathPropagates) {
  // ThreadPool(1) runs inline; the exception propagates directly and
  // execution is strictly serial up to the faulting index.
  ThreadPool pool(1);
  size_t ran = 0;
  std::string caught;
  try {
    (void)pool.ParallelFor(0, 100, 1, [&ran](size_t i) {
      ++ran;
      if (i == 5) throw std::runtime_error(std::to_string(i));
    });
  } catch (const std::runtime_error& e) {
    caught = e.what();
  }
  EXPECT_EQ(caught, "5");
  EXPECT_EQ(ran, 6u);
}

TEST(ParallelEvalTest, AutoMinimizeDuringParallelCompilesIsRaceFree) {
  // Each worker owns its manager, but all of them copy the process-wide
  // auto-minimize default at construction and bump the shared sdd.minimize.*
  // counters while rotating — the paths TSan must see overlap cleanly.
  const SddAutoMinimizeOptions saved = SddManager::DefaultAutoMinimize();
  SddAutoMinimizeOptions opts =
      SddAutoMinimizeOptions::ForMode(SddMinimizeMode::kAggressive);
  opts.min_live_nodes = 32;  // fire even on these small instances
  SddManager::SetDefaultAutoMinimize(opts);

  constexpr size_t kVars = 14;
  std::vector<uint64_t> counts(8, 0);
  std::vector<size_t> fires(counts.size(), 0);
  {
    ThreadPool pool(4);
    (void)pool.ParallelFor(0, counts.size(), 1, [&](size_t i) {
      const Cnf cnf = RandomCnf(kVars, 36, 700 + i);
      SddManager mgr(Vtree::RightLinear(Vtree::IdentityOrder(kVars)));
      const SddId f = CompileCnf(mgr, cnf);
      counts[i] = mgr.ModelCount(f).ToU64();
      fires[i] = mgr.auto_minimize_fires();
    });
  }
  SddManager::SetDefaultAutoMinimize(saved);

  size_t total_fires = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    // Serial reference with minimization off: same function either way.
    SddManager ref(Vtree::RightLinear(Vtree::IdentityOrder(kVars)));
    ref.set_auto_minimize(SddAutoMinimizeOptions{});
    const Cnf cnf = RandomCnf(kVars, 36, 700 + i);
    EXPECT_EQ(counts[i], ref.ModelCount(CompileCnf(ref, cnf)).ToU64())
        << "worker " << i;
    total_fires += fires[i];
  }
  EXPECT_GT(total_fires, 0u);  // the hook actually ran under contention
}

}  // namespace
}  // namespace tbc
