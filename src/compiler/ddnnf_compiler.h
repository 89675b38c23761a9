#ifndef TBC_COMPILER_DDNNF_COMPILER_H_
#define TBC_COMPILER_DDNNF_COMPILER_H_

#include <cstdint>

#include "base/guard.h"
#include "base/result.h"
#include "certify/trace.h"
#include "logic/cnf.h"
#include "nnf/nnf.h"

namespace tbc {

/// Options for the top-down compiler; the switches exist so the ablation
/// bench can quantify each technique (DESIGN.md, bench_ablation_compilers).
struct DdnnfOptions {
  /// Partition clauses into variable-disjoint connected components and
  /// compile each independently (the key idea behind c2d/sharpSAT).
  bool use_components = true;
  /// Cache compiled components, keyed by their variable and clause ids.
  bool use_cache = true;
};

/// Statistics from one compilation.
struct DdnnfStats {
  uint64_t decisions = 0;
  uint64_t cache_hits = 0;
  uint64_t components_split = 0;
};

/// Top-down CNF -> Decision-DNNF compiler.
///
/// Runs exhaustive DPLL — unit propagation, branching, component
/// decomposition, component caching — and keeps the *trace* of the search
/// as a circuit [Huang & Darwiche 2007]: decisions become or-gates
/// (x ∧ hi) ∨ (¬x ∧ lo), component splits become decomposable and-gates.
/// The result is a Decision-DNNF (decomposable + decision, hence
/// deterministic), supporting linear-time SAT, #SAT and WMC. This is the
/// architecture of c2d, sharpSAT and Dsharp referenced in paper §3.
class DdnnfCompiler {
 public:
  explicit DdnnfCompiler(DdnnfOptions options = {}) : options_(options) {}

  /// Compiles `cnf` into `mgr`; returns the root. Free variables are left
  /// unconstrained (the NNF counting queries apply gap factors). Unbounded:
  /// worst-case exponential time and space.
  NnfId Compile(const Cnf& cnf, NnfManager& mgr);

  /// Resource-governed compilation: decisions, created circuit nodes and
  /// wall-clock are charged against `guard`. On a trip, returns the typed
  /// refusal (kDeadlineExceeded / kBudgetExceeded / kCancelled); `mgr` stays
  /// valid but may contain partial garbage nodes (callers that care should
  /// compile into a scratch manager).
  Result<NnfId> CompileBounded(const Cnf& cnf, NnfManager& mgr, Guard& guard);

  const DdnnfStats& stats() const { return stats_; }

  /// Attaches a derivation-trace sink (borrowed; nullptr detaches). While
  /// attached, each CompileBounded clears and refills it with the search
  /// tree — decisions, component splits, BCP conflicts — in the form the
  /// certificate checker replays (certify/checker.h). Attaching changes
  /// nothing about the compile itself: same root, same circuit, same stats.
  void set_trace(DdnnfTrace* trace) { trace_ = trace; }

 private:
  DdnnfOptions options_;
  DdnnfStats stats_;
  DdnnfTrace* trace_ = nullptr;
};

}  // namespace tbc

#endif  // TBC_COMPILER_DDNNF_COMPILER_H_
