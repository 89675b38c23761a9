// Property tests for in-place dynamic vtree minimization: every rotate /
// swap step applied to a live SDD must preserve the compiled function
// (model count, weighted model count, evaluation), keep the manager
// analyzer-clean, and stay in lockstep with the recompilation oracle.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/sdd_analyzer.h"
#include "base/guard.h"
#include "base/observability.h"
#include "base/random.h"
#include "nnf/io.h"
#include "sdd/compile.h"
#include "sdd/io.h"
#include "sdd/minimize.h"
#include "sdd/sdd.h"
#include "sdd_recompile_oracle.h"
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

void ExpectAnalyzerClean(SddManager& mgr, SddId root, const char* where) {
  DiagnosticReport report;
  AnalyzeSdd(mgr, root, SddAnalysisOptions{}, report);
  EXPECT_TRUE(report.clean()) << where << ":\n" << report.ToText("sdd");
}

WeightMap SkewedWeights(size_t num_vars) {
  WeightMap w(num_vars);
  for (Var v = 0; v < num_vars; ++v) {
    w.Set(Pos(v), 0.25 + 0.1 * static_cast<double>(v % 5));
    w.Set(Neg(v), 1.0);
  }
  return w;
}

// The core per-step oracle: apply every edit kind at every vtree node of a
// compiled SDD; each applied step must preserve model count, WMC, and
// analyzer cleanliness, and undoing it via the exact inverse must restore
// the original size.
TEST(SddInPlaceEditTest, EveryEditPreservesSemanticsAndUndoes) {
  for (const uint64_t seed : {11u, 47u}) {
    const Cnf cnf = RandomCnf(8, 18, 3, seed);
    for (int shape = 0; shape < 2; ++shape) {
      SddManager mgr(shape == 0
                         ? Vtree::Balanced(Vtree::IdentityOrder(8))
                         : Vtree::RightLinear(Vtree::IdentityOrder(8)));
      SddId f = CompileCnf(mgr, cnf);
      const uint64_t models = cnf.CountModelsBruteForce();
      ASSERT_EQ(mgr.ModelCount(f).ToU64(), models);
      const WeightMap weights = SkewedWeights(8);
      const double wmc = mgr.Wmc(f, weights);
      for (VtreeId v = 0; v < mgr.vtree().num_nodes(); ++v) {
        for (int op = 0; op < 3; ++op) {
          const size_t size_before = mgr.Size(f);
          const SddEditResult r = op == 0   ? mgr.RotateRightInPlace(v)
                                  : op == 1 ? mgr.RotateLeftInPlace(v)
                                            : mgr.SwapChildrenInPlace(v);
          EXPECT_FALSE(r.aborted);
          if (!r.applied) continue;
          f = mgr.Resolve(f);
          EXPECT_EQ(mgr.ModelCount(f).ToU64(), models);
          EXPECT_NEAR(mgr.Wmc(f, weights), wmc, 1e-9 * (1.0 + wmc));
          ExpectAnalyzerClean(mgr, f, "after edit");
          // Exact inverse restores the vtree and (by canonicity) the size.
          const SddEditResult undo = op == 0   ? mgr.RotateLeftInPlace(v)
                                     : op == 1 ? mgr.RotateRightInPlace(v)
                                               : mgr.SwapChildrenInPlace(v);
          ASSERT_TRUE(undo.applied);
          f = mgr.Resolve(f);
          EXPECT_EQ(mgr.Size(f), size_before);
          EXPECT_EQ(mgr.ModelCount(f).ToU64(), models);
        }
      }
      ExpectAnalyzerClean(mgr, f, "after sweep");
    }
  }
}

// After an in-place edit the live SDD must equal what a fresh compilation
// under the mutated vtree produces — the canonicity statement that makes
// in-place search interchangeable with recompilation.
TEST(SddInPlaceEditTest, EditedSddMatchesFreshRecompilation) {
  const Cnf cnf = RandomCnf(9, 20, 3, 77);
  SddManager mgr(Vtree::Balanced(Vtree::IdentityOrder(9)));
  SddId f = CompileCnf(mgr, cnf);
  Rng rng(5);
  size_t checked = 0;
  for (size_t step = 0; step < 40; ++step) {
    const VtreeId v = static_cast<VtreeId>(rng.Below(mgr.vtree().num_nodes()));
    const int op = static_cast<int>(rng.Below(3));
    const SddEditResult r = op == 0   ? mgr.RotateRightInPlace(v)
                            : op == 1 ? mgr.RotateLeftInPlace(v)
                                      : mgr.SwapChildrenInPlace(v);
    if (!r.applied) continue;
    f = mgr.Resolve(f);
    SddManager fresh(mgr.vtree());
    const SddId g = CompileCnf(fresh, cnf);
    EXPECT_EQ(mgr.Size(f), fresh.Size(g));
    EXPECT_EQ(mgr.NumDecisionNodes(f), fresh.NumDecisionNodes(g));
    EXPECT_EQ(mgr.ModelCount(f).ToU64(), fresh.ModelCount(g).ToU64());
    ++checked;
  }
  EXPECT_GT(checked, 10u);  // the walk actually exercised edits
}

// Forwarding pointers: a reclaimed node resolves to a live survivor, the
// live count excludes it, and external ids stay usable through Resolve().
TEST(SddInPlaceEditTest, ReclamationForwardsAndLiveCountBalances) {
  const Cnf cnf = RandomCnf(10, 26, 3, 13);
  SddManager mgr(Vtree::RightLinear(Vtree::IdentityOrder(10)));
  SddId f = CompileCnf(mgr, cnf);
  const uint64_t models = cnf.CountModelsBruteForce();
  Rng rng(3);
  size_t reclaimed_total = 0;
  for (size_t step = 0; step < 60; ++step) {
    const VtreeId v = static_cast<VtreeId>(rng.Below(mgr.vtree().num_nodes()));
    const int op = static_cast<int>(rng.Below(3));
    const SddEditResult r = op == 0   ? mgr.RotateRightInPlace(v)
                            : op == 1 ? mgr.RotateLeftInPlace(v)
                                      : mgr.SwapChildrenInPlace(v);
    reclaimed_total += r.reclaimed;
    f = mgr.Resolve(f);
    ASSERT_FALSE(mgr.IsDead(f));  // Resolve always lands on a live node
  }
  EXPECT_GT(reclaimed_total, 0u);  // rotations on a linear vtree do retire nodes
  EXPECT_LE(mgr.live_node_count() + 2, mgr.num_nodes());
  EXPECT_EQ(mgr.ModelCount(f).ToU64(), models);
}

// The in-place search must be deterministic for a fixed seed and must
// count every attempted neighbor, applicable or not.
TEST(SddInPlaceMinimizeTest, DeterministicAndCountsIterations) {
  const Cnf cnf = RandomCnf(10, 24, 3, 321);
  const Vtree initial = Vtree::RightLinear(Vtree::IdentityOrder(10));
  const MinimizeResult a = MinimizeVtree(cnf, initial, 80, 17);
  const MinimizeResult b = MinimizeVtree(cnf, initial, 80, 17);
  EXPECT_EQ(a.iterations, 80u);
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.vtree.ToString(), b.vtree.ToString());
  EXPECT_LE(a.size, a.initial_size);
  // Returned (vtree, size) pairs are consistent: recompiling under the
  // returned vtree reproduces the reported size.
  SddManager check(a.vtree);
  EXPECT_EQ(check.Size(CompileCnf(check, cnf)) + 1, a.size);
}

// The recompilation-based search is the oracle: from the same start it
// explores the same neighborhood, so the in-place search must land on an
// equally small (or smaller) SDD given the same budget and seed.
TEST(SddInPlaceMinimizeTest, MatchesRecompileOracle) {
  const Cnf cnf = RandomCnf(10, 22, 3, 99);
  const Vtree initial = Vtree::RightLinear(Vtree::IdentityOrder(10));
  const MinimizeResult inplace = MinimizeVtree(cnf, initial, 120, 41);
  const MinimizeResult recompile =
      MinimizeVtreeByRecompile(cnf, initial, 120, 41, Guard::Unlimited());
  EXPECT_EQ(inplace.initial_size, recompile.initial_size);
  EXPECT_LE(inplace.size, recompile.size);
  // Both ends of the comparison still represent the same function.
  SddManager m1(inplace.vtree);
  SddManager m2(recompile.vtree);
  EXPECT_EQ(m1.ModelCount(CompileCnf(m1, cnf)).ToU64(),
            m2.ModelCount(CompileCnf(m2, cnf)).ToU64());
}

// MinimizeSddInPlace on a caller-owned manager: the root is re-homed, the
// incumbent never grows, and the pass reports its edit accounting.
TEST(SddInPlaceMinimizeTest, MinimizesCallerOwnedManager) {
  const Cnf cnf = RandomCnf(12, 30, 3, 1234);
  SddManager mgr(Vtree::RightLinear(Vtree::IdentityOrder(12)));
  const SddId f = CompileCnf(mgr, cnf);
  const uint64_t models = cnf.CountModelsBruteForce();
  const SddInPlaceMinimizeResult r = MinimizeSddInPlace(mgr, f, 100, 7);
  EXPECT_FALSE(r.interrupted);
  EXPECT_EQ(r.iterations, 100u);
  EXPECT_LE(r.size, r.initial_size);
  EXPECT_EQ(mgr.Size(mgr.Resolve(f)), r.size);  // old handle still resolves
  EXPECT_EQ(mgr.ModelCount(r.root).ToU64(), models);
  EXPECT_GT(r.applied, 0u);
}

// The size-triggered hook: an aggressive policy on a growing compilation
// must fire, and the compiled function must be unaffected.
TEST(SddAutoMinimizeTest, TriggerFiresAndPreservesFunction) {
  const Cnf cnf = RandomCnf(14, 40, 3, 2024);
  SddManager plain(Vtree::RightLinear(Vtree::IdentityOrder(14)));
  const SddId reference = CompileCnf(plain, cnf);
  const BigUint models = plain.ModelCount(reference);

  SddManager mgr(Vtree::RightLinear(Vtree::IdentityOrder(14)));
  SddAutoMinimizeOptions opts =
      SddAutoMinimizeOptions::ForMode(SddMinimizeMode::kAggressive);
  opts.min_live_nodes = 32;  // fire early on this small instance
  mgr.set_auto_minimize(opts);
  const SddId f = CompileCnf(mgr, cnf);
  EXPECT_GT(mgr.auto_minimize_fires(), 0u);
  EXPECT_EQ(mgr.ModelCount(f), models);
  ExpectAnalyzerClean(mgr, f, "after auto-minimize");
  // Auto-minimize must not *grow* the artifact the caller gets back.
  EXPECT_LE(mgr.Size(f), plain.Size(reference));
}

// Auto-minimize outcomes recorded before the auto hook and MinimizeVtree
// shared one search: the merged search must walk the same edits, so the
// final sizes and firing counts are unchanged.
TEST(SddAutoMinimizeTest, PinnedSizesAndFires) {
  struct Pin {
    SddMinimizeMode mode;
    size_t n;
    uint64_t seed;
    size_t size;
    size_t fires;
  };
  const Pin pins[] = {
      {SddMinimizeMode::kAuto, 18, 61, 580, 1},
      {SddMinimizeMode::kAuto, 18, 62, 900, 2},
      {SddMinimizeMode::kAuto, 22, 61, 3344, 4},
      {SddMinimizeMode::kAuto, 22, 62, 2806, 3},
      {SddMinimizeMode::kAggressive, 18, 61, 684, 3},
      {SddMinimizeMode::kAggressive, 18, 62, 818, 3},
      {SddMinimizeMode::kAggressive, 22, 61, 2966, 5},
      {SddMinimizeMode::kAggressive, 22, 62, 1902, 6},
  };
  for (const Pin& pin : pins) {
    SddManager mgr(Vtree::RightLinear(Vtree::IdentityOrder(pin.n)));
    mgr.set_auto_minimize(SddAutoMinimizeOptions::ForMode(pin.mode));
    const SddId f = CompileCnf(mgr, RandomCnf(pin.n, 2 * pin.n, 3, pin.seed));
    EXPECT_EQ(mgr.Size(f), pin.size) << "n=" << pin.n << " seed=" << pin.seed;
    EXPECT_EQ(mgr.auto_minimize_fires(), pin.fires)
        << "n=" << pin.n << " seed=" << pin.seed;
  }
}

// MinimizeVtree's best sizes, recorded before the per-edit cap became the
// live node count at pass start.
TEST(SddInPlaceMinimizeTest, PinnedBestSizes) {
  struct Pin {
    size_t n;
    uint64_t seed;
    size_t initial_size;
    size_t size;
  };
  const Pin pins[] = {
      {14, 101, 265, 233}, {20, 104, 199, 173}, {22, 105, 929, 662},
      {20, 113, 1091, 797}, {26, 116, 2387, 1815},
  };
  for (const Pin& pin : pins) {
    const MinimizeResult r =
        MinimizeVtree(RandomCnf(pin.n, 3 * pin.n, 3, pin.seed),
                      Vtree::RightLinear(Vtree::IdentityOrder(pin.n)), 120,
                      pin.seed);
    EXPECT_EQ(r.initial_size, pin.initial_size) << "seed " << pin.seed;
    EXPECT_EQ(r.size, pin.size) << "seed " << pin.seed;
  }
}

// The reachable walk fixes ToNnf's node-creation order, which fixes the
// NNF's ids and so the summation order of Wmc: both are pinned bit for
// bit, before and after in-place edits.
TEST(SddInPlaceMinimizeTest, WmcAndNnfExportArePinned) {
  const size_t n = 14;
  SddManager mgr(Vtree::RightLinear(Vtree::IdentityOrder(n)));
  SddId f = CompileCnf(mgr, RandomCnf(n, 40, 3, 2024));
  const WeightMap weights = SkewedWeights(n);
  EXPECT_EQ(mgr.Wmc(f, weights), 0x1.a38d496915177p-3);
  f = MinimizeSddInPlace(mgr, f, 60, 7).root;
  EXPECT_EQ(mgr.Size(f), 80u);
  EXPECT_EQ(mgr.Wmc(f, weights), 0x1.a38d496915177p-3);

  SddManager small(Vtree::Balanced(Vtree::IdentityOrder(6)));
  SddId g = CompileCnf(small, RandomCnf(6, 10, 3, 5));
  ASSERT_TRUE(small.RotateLeftInPlace(small.vtree().root()).applied);
  ASSERT_TRUE(small.SwapChildrenInPlace(small.vtree().root()).applied);
  g = small.Resolve(g);
  NnfManager nnf;
  const NnfId root = small.ToNnf(g, nnf);
  EXPECT_EQ(WriteNnf(nnf, root, 6),
            "nnf 27 45 6\n"
            "L 5\nL -4\nL 4\nA 2 0 1\nL -3\nL 2\nL -2\nL -1\nL 1\nA 2 6 7\n"
            "A 3 4 6 8\nO 0 2 9 10\nO 0 2 2 3\nL 3\nA 4 6 8 12 13\nA 2 0 11\n"
            "A 4 0 1 4 5\nO 0 3 14 15 16\nL -6\nA 5 0 1 4 5 7\nA 4 4 5 8 12\n"
            "A 3 2 8 13\nO 0 3 19 20 21\nL 6\nA 2 22 23\nA 2 17 18\n"
            "O 0 2 24 25\n");
}

// A guard cancelled before auto-minimize fires must stop the pass before
// its first edit and leave the manager interrupted with kCancelled, so the
// compile loop that called the hook refuses.
TEST(SddAutoMinimizeTest, CancelledGuardStopsPassBeforeAnyEdit) {
  const size_t n = 16;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const Cnf cnf = RandomCnf(n, 40, 3, seed);
    SddManager mgr(Vtree::RightLinear(Vtree::IdentityOrder(n)));
    mgr.set_auto_minimize(SddAutoMinimizeOptions{});
    const SddId f = CompileCnf(mgr, cnf);
    const BigUint models = mgr.ModelCount(f);
    const std::string vtree_before = mgr.vtree().ToString();
    mgr.set_auto_minimize(
        SddAutoMinimizeOptions::ForMode(SddMinimizeMode::kAggressive));
    Guard cancelled(Budget{});
    cancelled.Cancel();
    mgr.set_guard(&cancelled);
    const auto edits = [] {
      return Observability::Global().CounterValue("sdd.minimize.rotations") +
             Observability::Global().CounterValue("sdd.minimize.swaps");
    };
    const uint64_t edits_before = edits();
    const SddId g = mgr.MaybeAutoMinimize(f);
    mgr.set_guard(nullptr);
    ASSERT_EQ(mgr.auto_minimize_fires(), 1u) << "seed " << seed;
    EXPECT_TRUE(mgr.interrupted()) << "seed " << seed;
    EXPECT_EQ(mgr.interrupt_status().code(), StatusCode::kCancelled)
        << "seed " << seed;
    EXPECT_EQ(edits(), edits_before) << "seed " << seed;
    // No edit ran: the vtree is untouched and the collected manager holds
    // exactly its live nodes (an edit leaves rewrite generations behind).
    EXPECT_EQ(mgr.vtree().ToString(), vtree_before) << "seed " << seed;
    EXPECT_EQ(mgr.num_nodes(), mgr.live_node_count() + 2) << "seed " << seed;
    EXPECT_EQ(mgr.ModelCount(g), models) << "seed " << seed;
  }
}

// Off mode never fires; the process-wide default reaches new managers.
TEST(SddAutoMinimizeTest, DefaultPolicyIsCopiedAtConstruction) {
  const SddAutoMinimizeOptions saved = SddManager::DefaultAutoMinimize();
  SddAutoMinimizeOptions opts =
      SddAutoMinimizeOptions::ForMode(SddMinimizeMode::kAuto);
  opts.min_live_nodes = 64;
  SddManager::SetDefaultAutoMinimize(opts);
  SddManager mgr(Vtree::Balanced(Vtree::IdentityOrder(4)));
  EXPECT_EQ(mgr.auto_minimize().mode, SddMinimizeMode::kAuto);
  EXPECT_EQ(mgr.auto_minimize().min_live_nodes, 64u);
  SddManager::SetDefaultAutoMinimize(saved);
  SddManager off(Vtree::Balanced(Vtree::IdentityOrder(4)));
  EXPECT_EQ(off.auto_minimize().mode, SddMinimizeMode::kOff);
  const SddId t = off.MaybeAutoMinimize(off.True());
  EXPECT_EQ(t, off.True());
  EXPECT_EQ(off.auto_minimize_fires(), 0u);
}

// An aborted edit (node budget tripped mid-rewrite) must roll back to a
// consistent state: same vtree, same function, manager reusable after
// ClearInterrupt.
TEST(SddInPlaceEditTest, AbortRollsBackCompletely) {
  const Cnf cnf = RandomCnf(12, 32, 3, 555);
  SddManager mgr(Vtree::RightLinear(Vtree::IdentityOrder(12)));
  const SddId f = CompileCnf(mgr, cnf);
  const uint64_t models = cnf.CountModelsBruteForce();
  const std::string vtree_before = mgr.vtree().ToString();
  const size_t size_before = mgr.Size(f);
  // A one-node budget trips on the first fresh intern inside any rewrite.
  // Rotate LEFT: on a right-linear vtree that is the op that always finds
  // an internal right child to pull up (rotate right never applies).
  size_t aborted = 0;
  for (VtreeId v = 0; v < mgr.vtree().num_nodes() && aborted == 0; ++v) {
    Guard tight(Budget::NodeLimit(1));
    mgr.set_guard(&tight);
    const SddEditResult r = mgr.RotateLeftInPlace(v);
    mgr.set_guard(nullptr);
    if (r.aborted) {
      ++aborted;
      mgr.ClearInterrupt();
    } else if (r.applied) {
      // Small fragment fit under the budget; undo to keep the baseline.
      ASSERT_TRUE(mgr.RotateRightInPlace(v).applied);
      mgr.ClearInterrupt();
    }
  }
  ASSERT_EQ(aborted, 1u);
  EXPECT_EQ(mgr.vtree().ToString(), vtree_before);
  const SddId g = mgr.Resolve(f);
  EXPECT_EQ(mgr.Size(g), size_before);
  EXPECT_EQ(mgr.ModelCount(g).ToU64(), models);
  ExpectAnalyzerClean(mgr, g, "after abort");
  // The manager still compiles correctly afterwards.
  Cnf tiny(2);
  tiny.AddClause({Pos(0), Pos(1)});
  SddManager fresh(Vtree::Balanced({0, 1}));
  EXPECT_EQ(mgr.ModelCount(mgr.Resolve(f)).ToU64(), models);
  EXPECT_EQ(fresh.ModelCount(CompileCnf(fresh, tiny)).ToU64(), 3u);
}

// GarbageCollect rebuilds the manager down to the root's reachable
// subgraph: the function survives exactly, the live count drops to the
// reachable node count, and in-place edits on the collected manager stay
// analyzer-clean (this is what makes post-compile minimization local).
TEST(SddGarbageCollectTest, CollectsToReachableAndPreservesFunction) {
  const size_t n = 14;
  const Cnf cnf = RandomCnf(n, 40, 3, 23);
  const WeightMap weights = SkewedWeights(n);
  SddManager mgr(Vtree::RightLinear(Vtree::IdentityOrder(n)));
  SddId root = CompileCnf(mgr, cnf);
  const uint64_t models = mgr.ModelCount(root).ToU64();
  const double wmc = mgr.Wmc(root, weights);
  const size_t size = mgr.Size(root);
  const size_t nodes = mgr.NumDecisionNodes(root);
  ASSERT_GT(mgr.live_node_count(), nodes)
      << "compilation should leave dead intermediates to collect";

  root = mgr.GarbageCollect(root);
  EXPECT_EQ(mgr.ModelCount(root).ToU64(), models);
  EXPECT_NEAR(mgr.Wmc(root, weights), wmc, 1e-9 * (1.0 + wmc));
  EXPECT_EQ(mgr.Size(root), size);
  EXPECT_EQ(mgr.NumDecisionNodes(root), nodes);
  // Live nodes = the root's decision nodes + its literal nodes, nothing
  // else; a second collect finds nothing more to drop.
  const size_t live = mgr.live_node_count();
  EXPECT_LE(live, nodes + 2 * n);
  root = mgr.GarbageCollect(root);
  EXPECT_EQ(mgr.live_node_count(), live);
  ExpectAnalyzerClean(mgr, root, "after GarbageCollect");

  // The collected manager supports further in-place minimization.
  const SddInPlaceMinimizeResult r = MinimizeSddInPlace(mgr, root, 30, 7);
  root = mgr.Resolve(r.root);
  EXPECT_EQ(mgr.ModelCount(root).ToU64(), models);
  EXPECT_LE(r.size, size);
  ExpectAnalyzerClean(mgr, root, "after post-collect minimize");
}

// Constant roots collapse the manager to just the constants.
TEST(SddGarbageCollectTest, ConstantRootResetsManager) {
  SddManager mgr(Vtree::Balanced(Vtree::IdentityOrder(6)));
  Cnf unsat(6);
  unsat.AddClause({Pos(0)});
  unsat.AddClause({Neg(0)});
  const SddId f = CompileCnf(mgr, unsat);
  ASSERT_EQ(f, mgr.False());
  const SddId g = mgr.GarbageCollect(f);
  EXPECT_EQ(g, mgr.False());
  EXPECT_EQ(mgr.live_node_count(), 0u);
}

}  // namespace
}  // namespace tbc
