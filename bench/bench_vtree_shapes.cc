// bench_vtree_shapes: SDD compile cost under right-linear vs balanced vs
// structure-synthesized (min-fill) vtrees, on the Fig 8 random-3-CNF
// family (same n/m/seed grid as bench_fig8_model_counting) and on
// label-shuffled grid CNFs, where the variable numbering carries no
// structural information and only the min-fill vtree can recover the
// grid's width from the primal graph.
//
// Unlike bench_kernels.cc this binary uses the structure-analysis API
// introduced with it, so tools/run_bench.sh runs it on the CURRENT tree
// only (there is no pre-PR baseline to compare against; right-linear and
// balanced columns are the in-report baseline instead) and merges the
// output into BENCH_kernels.json under "vtree_shapes".
//
// Usage: bench_vtree_shapes [output.json]   (default: stdout)

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "analysis/structure/forecast.h"
#include "base/guard.h"
#include "base/random.h"
#include "base/timer.h"
#include "logic/cnf.h"
#include "sdd/compile.h"
#include "sdd/minimize.h"
#include "sdd/sdd.h"
#include "sdd_recompile_oracle.h"
#include "vtree/vtree.h"

namespace {

using namespace tbc;

constexpr int kRuns = 5;

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

// rows x cols grid whose variable labels are a seeded random permutation:
// adjacent grid cells get unrelated indices, so identity-order vtrees
// (right-linear, balanced) cannot exploit the grid structure.
Cnf ShuffledGridCnf(size_t rows, size_t cols, uint64_t seed) {
  const size_t n = rows * cols;
  std::vector<Var> label(n);
  std::iota(label.begin(), label.end(), 0);
  Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(label[i - 1], label[rng.Below(i)]);
  }
  Cnf cnf(n);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const size_t cell = r * cols + c;
      if (c + 1 < cols) {
        cnf.AddClause({Neg(label[cell]), Pos(label[cell + 1])});
      }
      if (r + 1 < rows) {
        cnf.AddClause({Pos(label[cell]), Neg(label[cell + cols])});
      }
    }
  }
  return cnf;
}

double g_sink = 0.0;

struct ShapeResult {
  size_t size = 0;      // SDD elements (deterministic per shape)
  size_t nodes = 0;     // decision nodes
  double median_ms = 0.0;
};

ShapeResult CompileWith(const Cnf& cnf, const Vtree& vt) {
  ShapeResult r;
  std::vector<double> times;
  for (int run = 0; run < kRuns; ++run) {
    SddManager mgr(vt);
    const Timer timer;
    const SddId f = CompileCnf(mgr, cnf);
    times.push_back(timer.Millis());
    r.size = mgr.Size(f);
    r.nodes = mgr.NumDecisionNodes(f);
    g_sink += static_cast<double>(mgr.Size(f));
  }
  std::sort(times.begin(), times.end());
  r.median_ms = times[times.size() / 2];
  return r;
}

// Dynamic-minimization comparison: the same seeded local search over
// rotate/swap neighbors, executed in place on the live SDD vs by
// recompiling the CNF for every candidate. Equal-or-smaller size at a
// fraction of the wall-clock is the acceptance bar for the in-place path.
//
// Cost models: dynamic minimization is a post-compile operation, so the
// in-place column times only the edit search on an already compiled and
// garbage-collected SDD (the shared setup). The recompile search's very
// method is compilation — its timing is the candidate compiles it runs
// (including its one incumbent compile, 1/(budget+1) of its loop).
constexpr size_t kMinimizeBudget = 40;
constexpr uint64_t kMinimizeSeed = 17;
constexpr int kMinimizeRuns = 3;

struct MinimizeColumn {
  size_t size = 0;       // best SDD size found (historical +1 convention)
  size_t iterations = 0;
  double median_ms = 0.0;
};

struct MinimizeOutcome {
  size_t size = 0;
  size_t iterations = 0;
};

// `search` performs one full search, reporting the wall-clock of its
// timed region (setup excluded) through the out-parameter.
template <typename SearchFn>
MinimizeColumn MeasureMinimize(SearchFn&& search) {
  MinimizeColumn col;
  std::vector<double> times;
  for (int run = 0; run < kMinimizeRuns; ++run) {
    double ms = 0.0;
    const MinimizeOutcome r = search(ms);
    times.push_back(ms);
    col.size = r.size;
    col.iterations = r.iterations;
    g_sink += static_cast<double>(r.size);
  }
  std::sort(times.begin(), times.end());
  col.median_ms = times[times.size() / 2];
  return col;
}

struct FamilyRow {
  std::string family;
  size_t n = 0;
  uint32_t width = 0;        // forecast best width
  uint32_t width_lb = 0;     // degeneracy lower bound
  ShapeResult right, balanced, minfill;
  MinimizeColumn min_inplace, min_recompile;
};

FamilyRow Measure(const std::string& family, const Cnf& cnf) {
  FamilyRow row;
  row.family = family;
  row.n = cnf.num_vars();
  const std::vector<Var> identity = Vtree::IdentityOrder(cnf.num_vars());
  row.right = CompileWith(cnf, Vtree::RightLinear(identity));
  row.balanced = CompileWith(cnf, Vtree::Balanced(identity));
  const StructureReport report = AnalyzeCnfStructure(cnf);
  row.width = report.best_width();
  row.width_lb = report.width_lower_bound;
  row.minfill = CompileWith(cnf, VtreeForCnf(report));
  // Both searches start from the worst shape above (right-linear) and walk
  // the identical seeded neighbor sequence.
  const Vtree start = Vtree::RightLinear(identity);
  row.min_inplace = MeasureMinimize([&](double& ms) {
    SddManager mgr(start);
    mgr.set_auto_minimize(SddAutoMinimizeOptions{});
    SddId root = CompileCnf(mgr, cnf);
    root = mgr.GarbageCollect(root);
    const Timer timer;
    const SddInPlaceMinimizeResult r =
        MinimizeSddInPlace(mgr, root, kMinimizeBudget, kMinimizeSeed);
    ms = timer.Millis();
    return MinimizeOutcome{r.size + 1, r.iterations};
  });
  row.min_recompile = MeasureMinimize([&](double& ms) {
    const Timer timer;
    const MinimizeResult r = MinimizeVtreeByRecompile(
        cnf, start, kMinimizeBudget, kMinimizeSeed, Guard::Unlimited());
    ms = timer.Millis();
    return MinimizeOutcome{r.size, r.iterations};
  });
  return row;
}

void PrintShape(std::FILE* out, const char* name, const ShapeResult& r,
                bool last) {
  std::fprintf(out,
               "      \"%s\": {\"size\": %zu, \"nodes\": %zu, "
               "\"median_ms\": %.3f}%s\n",
               name, r.size, r.nodes, r.median_ms, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<FamilyRow> rows;
  // Fig 8 family: same n/m/seed grid as bench_fig8_model_counting.
  for (size_t n : {12, 16, 20, 24, 28, 32}) {
    rows.push_back(Measure("fig8_random3cnf_n" + std::to_string(n),
                           RandomCnf(n, n * 3, 7 + n)));
  }
  // Label-shuffled grids: bounded width hidden behind random numbering.
  for (size_t cols : {4, 5}) {
    rows.push_back(Measure("grid4x" + std::to_string(cols) + "_shuffled",
                           ShuffledGridCnf(4, cols, 11 + cols)));
  }

  std::FILE* out = stdout;
  if (argc > 1) {
    out = std::fopen(argv[1], "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
  }
  std::fprintf(out,
               "{\n  \"median_of\": %d,\n  \"minimize\": "
               "{\"budget\": %zu, \"seed\": %llu, \"median_of\": %d},\n"
               "  \"families\": [\n",
               kRuns, kMinimizeBudget,
               static_cast<unsigned long long>(kMinimizeSeed), kMinimizeRuns);
  for (size_t i = 0; i < rows.size(); ++i) {
    const FamilyRow& r = rows[i];
    std::fprintf(out,
                 "    {\"family\": \"%s\", \"vars\": %zu, "
                 "\"forecast_width\": %u, \"width_lower_bound\": %u,\n",
                 r.family.c_str(), r.n, r.width, r.width_lb);
    PrintShape(out, "right", r.right, false);
    PrintShape(out, "balanced", r.balanced, false);
    PrintShape(out, "minfill", r.minfill, false);
    std::fprintf(out,
                 "      \"minimize_inplace\": {\"size\": %zu, "
                 "\"iterations\": %zu, \"median_ms\": %.3f},\n",
                 r.min_inplace.size, r.min_inplace.iterations,
                 r.min_inplace.median_ms);
    std::fprintf(out,
                 "      \"minimize_recompile\": {\"size\": %zu, "
                 "\"iterations\": %zu, \"median_ms\": %.3f}\n",
                 r.min_recompile.size, r.min_recompile.iterations,
                 r.min_recompile.median_ms);
    std::fprintf(out, "    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  if (out != stdout) std::fclose(out);
  std::fprintf(stderr, "sink=%.6f\n", g_sink);
  return 0;
}
