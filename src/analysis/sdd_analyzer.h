#ifndef TBC_ANALYSIS_SDD_ANALYZER_H_
#define TBC_ANALYSIS_SDD_ANALYZER_H_

#include <string>

#include "analysis/diagnostics.h"
#include "sdd/sdd.h"
#include "vtree/vtree.h"

namespace tbc {

struct SddAnalysisOptions {
  /// Verify the partition semantics of every decision node (primes pairwise
  /// disjoint and exhaustive). On the manager this uses canonical apply; on
  /// raw files it uses SAT over a structural NNF translation.
  bool check_partition = true;
};

/// Verifies the SDD invariants of the subgraph at `root` against the
/// manager's vtree: vtree-respecting structure (sdd.structured), compressed
/// and trimmed form (sdd.compressed / sdd.trimmed), and the strong
/// determinism of Fig 9 — primes non-false, pairwise disjoint, exhaustive
/// (sdd.primes-partition). The structure and partition findings are
/// CheckSddElements' (sdd/sdd.h), the check ReadSdd refuses on. Takes the
/// manager non-const because partition checking uses (polytime, canonical)
/// apply operations.
void AnalyzeSdd(SddManager& mgr, SddId root, const SddAnalysisOptions& options,
                DiagnosticReport& report);

/// Verifies the invariants of a raw .sdd file against `vtree`: everything
/// AnalyzeSdd checks, on the graph ParseSddFileGraph (sdd/io.h) reads, so
/// nothing is canonicalized away. Partition semantics are decided by SAT on
/// a structural NNF translation of the file graph.
void AnalyzeSddFile(const std::string& text, const Vtree& vtree,
                    const SddAnalysisOptions& options, DiagnosticReport& report);

}  // namespace tbc

#endif  // TBC_ANALYSIS_SDD_ANALYZER_H_
