// Section 3 micro-benchmarks (google-benchmark): the tractability claims
// behind the knowledge compilation map — DNNF satisfiability and d-DNNF
// counting are linear in circuit size; SDD apply is polynomial (O(s·t));
// SDD negation is linear; the constrained-vtree max-sum pass (E-MAJSAT /
// MAP) is linear in the circuit.

#include <benchmark/benchmark.h>

#include <set>

#include "base/random.h"
#include "compiler/ddnnf_compiler.h"
#include "core/solvers.h"
#include "nnf/queries.h"
#include "obdd/obdd.h"
#include "sdd/compile.h"
#include "sdd/sdd.h"
#include "vtree/vtree.h"

namespace {

using namespace tbc;

Cnf RandomCnf(size_t n, size_t m, uint64_t seed) {
  Rng rng(seed);
  Cnf cnf(n);
  for (size_t i = 0; i < m; ++i) {
    std::set<Var> vars;
    while (vars.size() < 3) vars.insert(static_cast<Var>(rng.Below(n)));
    Clause c;
    for (Var v : vars) c.push_back(Lit(v, rng.Flip(0.5)));
    cnf.AddClause(c);
  }
  return cnf;
}

void BM_DnnfSat(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Cnf cnf = RandomCnf(n, 3 * n, n);
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, mgr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsSatDnnf(mgr, root));
  }
  state.counters["circuit_edges"] = static_cast<double>(mgr.CircuitSize(root));
}
BENCHMARK(BM_DnnfSat)->Arg(16)->Arg(24)->Arg(32);

void BM_DdnnfModelCount(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Cnf cnf = RandomCnf(n, 3 * n, n + 1);
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, mgr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ModelCount(mgr, root, n));
  }
  state.counters["circuit_edges"] = static_cast<double>(mgr.CircuitSize(root));
}
BENCHMARK(BM_DdnnfModelCount)->Arg(16)->Arg(24)->Arg(32);

void BM_DdnnfWmc(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Cnf cnf = RandomCnf(n, 3 * n, n + 2);
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, mgr);
  WeightMap w(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Wmc(mgr, root, w));
  }
}
BENCHMARK(BM_DdnnfWmc)->Arg(16)->Arg(24)->Arg(32);

void BM_SddApply(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  // Conjoin two random functions; apply cost is O(s * t).
  for (auto _ : state) {
    state.PauseTiming();
    SddManager mgr(Vtree::Balanced(Vtree::IdentityOrder(n)));
    const SddId f = CompileCnf(mgr, RandomCnf(n, 2 * n, 3 * n));
    const SddId g = CompileCnf(mgr, RandomCnf(n, 2 * n, 3 * n + 1));
    state.ResumeTiming();
    benchmark::DoNotOptimize(mgr.Conjoin(f, g));
  }
}
BENCHMARK(BM_SddApply)->Arg(12)->Arg(16)->Arg(20);

void BM_SddNegate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    SddManager mgr(Vtree::Balanced(Vtree::IdentityOrder(n)));
    const SddId f = CompileCnf(mgr, RandomCnf(n, 3 * n, 5 * n));
    state.ResumeTiming();
    benchmark::DoNotOptimize(mgr.Negate(f));
  }
}
BENCHMARK(BM_SddNegate)->Arg(12)->Arg(16)->Arg(20);

void BM_ObddApply(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();  // fresh manager so the apply cache is cold
    ObddManager mgr(Vtree::IdentityOrder(n));
    const ObddId f = mgr.CompileCnf(RandomCnf(n, 2 * n, 7 * n));
    const ObddId g = mgr.CompileCnf(RandomCnf(n, 2 * n, 7 * n + 1));
    state.ResumeTiming();
    benchmark::DoNotOptimize(mgr.And(f, g));
  }
}
BENCHMARK(BM_ObddApply)->Arg(12)->Arg(16)->Arg(20);

void BM_ConstrainedEMajSat(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Cnf cnf = RandomCnf(n, 5 * n / 2, 11 * n);
  std::vector<Var> y;
  for (Var v = 0; v < n / 3; ++v) y.push_back(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CircuitSolvers::MaxCountOverY(cnf, y));
  }
}
BENCHMARK(BM_ConstrainedEMajSat)->Arg(12)->Arg(15)->Arg(18);

}  // namespace

BENCHMARK_MAIN();
