// Kernel micro-benchmarks: the hot paths the flat-table/arena kernel layer
// targets, shaped after the paper-figure benches (Fig 8 model counting,
// Fig 14 PSDD evaluation, Fig 22 hierarchical map compilation) plus the
// raw SDD/OBDD apply loops underneath them.
//
// This file is deliberately restricted to APIs that exist both before and
// after the kernel layer (compile, ModelCount/Wmc, Psdd evaluation, map
// compilation): tools/run_bench.sh compiles this exact source against the
// pre-PR baseline in a git worktree and against the current tree, runs
// both, and writes the before/after medians to BENCH_kernels.json. Seeds
// are pinned; every workload reports the median of 5 runs.
//
// Usage: bench_kernels [output.json]   (default: stdout)

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "base/random.h"
#include "base/timer.h"

// run_bench.sh compiles this exact source against the pre-observability
// baseline worktree, which has no base/observability.h — gate on the
// header so both builds succeed and the report degrades to "stats": null.
#if __has_include("base/observability.h")
#include "base/observability.h"
#define BENCH_HAVE_OBS 1
#else
#define BENCH_HAVE_OBS 0
#endif
#include "certify/trace.h"
#include "compiler/ddnnf_compiler.h"
#include "nnf/nnf.h"
#include "nnf/queries.h"
#include "obdd/obdd.h"
#include "psdd/psdd.h"
#include "sdd/compile.h"
#include "sdd/minimize.h"
#include "sdd/sdd.h"
#include "spaces/hierarchical.h"
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

WeightMap RandomWeights(size_t n, uint64_t seed) {
  Rng rng(seed);
  WeightMap w(n);
  for (Var v = 0; v < n; ++v) {
    const double p = 0.05 + 0.9 * rng.Uniform();
    w.Set(Pos(v), p);
    w.Set(Neg(v), 1.0 - p);
  }
  return w;
}

// Sink defeating dead-code elimination across runs.
double g_sink = 0.0;

// Fig 8 shape: top-down d-DNNF compilation (component cache under string
// keys) followed by repeated linear counting passes.
void BenchDdnnfCountWmc() {
  for (size_t n : {16, 20, 24, 28}) {
    const Cnf cnf = RandomCnf(n, n * 3, 7 + n);
    const WeightMap w = RandomWeights(n, 100 + n);
    NnfManager mgr;
    DdnnfCompiler compiler;
    const NnfId root = compiler.Compile(cnf, mgr);
    for (int i = 0; i < 20; ++i) {
      g_sink += ModelCount(mgr, root, n).ToDouble();
      g_sink += Wmc(mgr, root, w);
    }
  }
}

// Fig 14 shape: PSDD built on a compiled SDD base, then dense evaluation —
// complete-input probabilities, evidence probabilities, and marginals.
void BenchPsddEval() {
  const size_t n = 14;
  const Cnf cnf = RandomCnf(n, n + 4, 51);
  SddManager mgr(Vtree::Balanced(Vtree::IdentityOrder(n)));
  const SddId base = CompileCnf(mgr, cnf);
  if (base == mgr.False()) return;  // pinned seed keeps this satisfiable
  const Psdd psdd(mgr, base);
  Rng rng(52);
  for (int i = 0; i < 2000; ++i) {
    Assignment x(n);
    for (Var v = 0; v < n; ++v) x[v] = rng.Flip(0.5);
    g_sink += psdd.Probability(x);
  }
  for (int i = 0; i < 500; ++i) {
    PsddEvidence e(n, Obs::kUnknown);
    for (Var v = 0; v < n; ++v) {
      const uint64_t r = rng.Below(3);
      if (r < 2) e[v] = r == 0 ? Obs::kFalse : Obs::kTrue;
    }
    g_sink += psdd.ProbabilityEvidence(e);
    const std::vector<double> marg = psdd.Marginals(e, /*normalized=*/false);
    g_sink += marg[0];
  }
}

// Certify-overhead pair: the Fig 8 compile workload with and without a
// derivation-trace sink attached. The traced/plain ratio of the two
// "after" medians is the price the certify layer charges for a checkable
// compilation; the certification gate holds it at <= 1.25x.
void BenchCertifyFig8Plain() {
  for (size_t n : {16, 20, 24, 28}) {
    const Cnf cnf = RandomCnf(n, n * 3, 7 + n);
    NnfManager mgr;
    DdnnfCompiler compiler;
    const NnfId root = compiler.Compile(cnf, mgr);
    g_sink += ModelCount(mgr, root, n).ToDouble();
  }
}

void BenchCertifyFig8Traced() {
  for (size_t n : {16, 20, 24, 28}) {
    const Cnf cnf = RandomCnf(n, n * 3, 7 + n);
    NnfManager mgr;
    DdnnfCompiler compiler;
    DdnnfTrace trace;
    compiler.set_trace(&trace);
    const NnfId root = compiler.Compile(cnf, mgr);
    g_sink += ModelCount(mgr, root, n).ToDouble();
    g_sink += static_cast<double>(trace.comps.size());
  }
}

// Fig 22 shape: hierarchical map compilation (OBDD/SDD apply churn through
// the unique table and apply cache).
void BenchHierarchicalMap() {
  HierarchicalMap map(6, 6, 2);
  const GraphNode s = 0;
  const GraphNode t = static_cast<GraphNode>(map.grid().num_nodes() - 1);
  const auto stats = map.Compile(s, t);
  g_sink += static_cast<double>(stats.hier_nodes);
}

// Raw SDD apply loop: clause-by-clause CNF conjoin (unique table + op
// cache are the entire cost).
void BenchSddApply() {
  const size_t n = 22;
  const Cnf cnf = RandomCnf(n, n * 2, 61);
  SddManager mgr(Vtree::Balanced(Vtree::IdentityOrder(n)));
  const SddId f = CompileCnf(mgr, cnf);
  const WeightMap w = RandomWeights(n, 62);
  for (int i = 0; i < 10; ++i) g_sink += mgr.Wmc(f, w);
}

// Vtree minimization through the stable MinimizeVtree entry point: the
// baseline library recompiles the CNF for every candidate neighbor, the
// current one rotates/swaps the live SDD in place — so the before/after
// ratio of this kernel IS the dynamic-minimization speedup (budget and
// seed pinned; both searches walk the same seeded neighbor sequence).
void BenchSddMinimize() {
  for (size_t n : {12, 16, 20}) {
    const Cnf cnf = RandomCnf(n, n * 3, 7 + n);
    const MinimizeResult r = MinimizeVtree(
        cnf, Vtree::RightLinear(Vtree::IdentityOrder(n)), 60, 17);
    g_sink += static_cast<double>(r.size + r.iterations);
  }
}

// Minimize-enabled SDD suite variant: the sdd_apply workload compiled with
// the size-triggered auto-minimize hook armed. Trees that predate the hook
// (no TBC_SDD_HAS_INPLACE_MINIMIZE in sdd/minimize.h) run the plain
// compile, so the before/after ratio prices the hook against doing nothing.
void BenchSddCompileAutoMinimize() {
#ifdef TBC_SDD_HAS_INPLACE_MINIMIZE
  const SddAutoMinimizeOptions saved = SddManager::DefaultAutoMinimize();
  SddAutoMinimizeOptions opts =
      SddAutoMinimizeOptions::ForMode(SddMinimizeMode::kAggressive);
  SddManager::SetDefaultAutoMinimize(opts);
#endif
  const size_t n = 22;
  const Cnf cnf = RandomCnf(n, n * 2, 61);
  SddManager mgr(Vtree::RightLinear(Vtree::IdentityOrder(n)));
  const SddId f = CompileCnf(mgr, cnf);
  const WeightMap w = RandomWeights(n, 62);
  for (int i = 0; i < 10; ++i) g_sink += mgr.Wmc(f, w);
#ifdef TBC_SDD_HAS_INPLACE_MINIMIZE
  SddManager::SetDefaultAutoMinimize(saved);
#endif
}

// Raw OBDD apply loop plus repeated counting passes.
void BenchObddApply() {
  const size_t n = 24;
  const Cnf cnf = RandomCnf(n, n * 2, 71);
  std::vector<Var> order(n);
  for (Var v = 0; v < n; ++v) order[v] = v;
  ObddManager mgr(order);
  const ObddId f = mgr.CompileCnf(cnf);
  const WeightMap w = RandomWeights(n, 72);
  for (int i = 0; i < 20; ++i) {
    g_sink += mgr.ModelCount(f).ToDouble();
    g_sink += mgr.Wmc(f, w);
  }
}

struct Entry {
  std::string name;
  std::vector<double> runs_ms;
  double median_ms = 0.0;
};

template <typename Fn>
Entry Measure(const std::string& name, Fn&& fn) {
  Entry e;
  e.name = name;
  fn();  // warm-up: page in code, fill allocator pools
  for (int r = 0; r < 5; ++r) {
    Timer t;
    fn();
    e.runs_ms.push_back(t.Millis());
  }
  std::vector<double> sorted = e.runs_ms;
  std::sort(sorted.begin(), sorted.end());
  e.median_ms = sorted[sorted.size() / 2];
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<Entry> entries;
  entries.push_back(Measure("ddnnf_count_wmc", BenchDdnnfCountWmc));
  entries.push_back(Measure("certify_fig8_plain", BenchCertifyFig8Plain));
  entries.push_back(Measure("certify_fig8_traced", BenchCertifyFig8Traced));
  entries.push_back(Measure("psdd_eval", BenchPsddEval));
  entries.push_back(Measure("hierarchical_map", BenchHierarchicalMap));
  entries.push_back(Measure("sdd_apply_wmc", BenchSddApply));
  entries.push_back(Measure("sdd_minimize", BenchSddMinimize));
  entries.push_back(Measure("sdd_compile_autominimize", BenchSddCompileAutoMinimize));
  entries.push_back(Measure("obdd_apply_count", BenchObddApply));

  std::FILE* out = stdout;
  if (argc > 1) {
    out = std::fopen(argv[1], "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
  }
  std::fprintf(out, "{\n  \"median_of\": 5,\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(out, "    {\"name\": \"%s\", \"median_ms\": %.3f, \"runs_ms\": [",
                 e.name.c_str(), e.median_ms);
    for (size_t r = 0; r < e.runs_ms.size(); ++r) {
      std::fprintf(out, "%s%.3f", r ? ", " : "", e.runs_ms[r]);
    }
    std::fprintf(out, "]}%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  // The observability registry accumulated over every run above: the same
  // counters/gauges/histograms schema kc_cli --stats=json emits (pinned by
  // tools/stats_schema.json), so bench reports and CLI stats are directly
  // comparable.
#if BENCH_HAVE_OBS
  const std::string stats = tbc::Observability::Global().RenderJson();
  // RenderJson ends with "}\n": trim the newline to embed as a value.
  std::fprintf(out, "  \"stats\": %.*s\n",
               static_cast<int>(stats.size() - 1), stats.c_str());
#else
  std::fprintf(out, "  \"stats\": null\n");
#endif
  std::fprintf(out, "}\n");
  if (out != stdout) std::fclose(out);
  std::fprintf(stderr, "sink=%.6f\n", g_sink);  // keep the work observable
  return 0;
}
