// Figure 8: model counting in linear time on d-DNNF circuits. Reproduces
// the figure's count (9 satisfying inputs of 16 on the running-example
// circuit) and then demonstrates the linear-time claim with a sweep:
// counting time grows linearly with compiled circuit size.

#include <cstdio>
#include <set>

#include "analysis/diagnostics.h"
#include "analysis/nnf_analyzer.h"
#include "analysis/rules.h"
#include "base/random.h"
#include "base/timer.h"
#include "compiler/ddnnf_compiler.h"
#include "nnf/queries.h"

namespace {

tbc::Cnf RandomCnf(size_t n, size_t m, uint64_t seed) {
  tbc::Rng rng(seed);
  tbc::Cnf cnf(n);
  for (size_t i = 0; i < m; ++i) {
    std::set<tbc::Var> vars;
    while (vars.size() < 3) vars.insert(static_cast<tbc::Var>(rng.Below(n)));
    tbc::Clause c;
    for (tbc::Var v : vars) c.push_back(tbc::Lit(v, rng.Flip(0.5)));
    cnf.AddClause(c);
  }
  return cnf;
}

}  // namespace

int main() {
  using namespace tbc;
  std::printf("=== Fig 8: linear-time model counting on d-DNNF ===\n");

  // The paper circuit: (P∨L) ∧ (A⇒P) ∧ (K⇒(A∨L)).
  Cnf delta(4);
  delta.AddClauseDimacs({4, 3});
  delta.AddClauseDimacs({-1, 4});
  delta.AddClauseDimacs({-2, 1, 3});
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(delta, mgr);
  // The static analyzer's d-DNNF checks; determinism is decided by SAT on
  // each pair of or-inputs.
  DiagnosticReport report;
  AnalyzeNnf(mgr, root, NnfAnalysisOptions{}, report);
  std::printf("paper circuit: decomposable=%d deterministic=%d\n",
              !report.HasRule(rules::kDnnfDecomposable),
              !report.HasRule(rules::kDdnnfDeterministic) &&
                  !report.HasRule(rules::kDdnnfUnverified));
  std::printf("model count: %s of 16 (paper Fig 8: \"9 satisfying inputs "
              "out of 16 possible ones\")\n\n",
              ModelCount(mgr, root, 4).ToString().c_str());

  std::printf("linearity sweep: count time vs circuit size (10 repeats)\n");
  std::printf("%-6s %-10s %-14s %-12s %-14s\n", "n", "edges", "models",
              "count(us)", "us per edge");
  for (size_t n : {12, 16, 20, 24, 28, 32}) {
    Cnf cnf = RandomCnf(n, n * 3, 7 + n);
    NnfManager m2;
    DdnnfCompiler c2;
    const NnfId r2 = c2.Compile(cnf, m2);
    const size_t edges = m2.CircuitSize(r2);
    Timer t;
    BigUint count(0);
    const int repeats = 10;
    for (int i = 0; i < repeats; ++i) count = ModelCount(m2, r2, n);
    const double us = t.Seconds() * 1e6 / repeats;
    std::printf("%-6zu %-10zu %-14s %-12.1f %-14.3f\n", n, edges,
                count.ToString().c_str(), us, us / static_cast<double>(edges));
  }
  std::printf("\npaper shape: per-edge counting cost stays flat - counting "
              "is linear in circuit size.\n");
  return 0;
}
