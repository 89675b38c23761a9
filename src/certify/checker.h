#ifndef TBC_CERTIFY_CHECKER_H_
#define TBC_CERTIFY_CHECKER_H_

#include <cstdint>

#include "analysis/diagnostics.h"
#include "base/bigint.h"
#include "certify/certificate.h"

namespace tbc {

/// Verification knobs. The defaults are generous enough that every
/// certificate the in-tree compilers emit for the test corpus verifies
/// without tripping a budget; a trip is reported as certify.budget (an
/// error: "unverified" is not "verified").
struct CertifyOptions {
  /// Recompute the model count bottom-up and compare to the claim.
  bool check_count = true;
  /// Cap on DPLL decisions per semantic fallback / determinism query.
  uint64_t max_solve_decisions = 1u << 20;
  /// Cap on total replay steps + probes across the whole check.
  uint64_t max_work = 1u << 22;
};

struct CertifyResult {
  DiagnosticReport report;
  /// The checker's own bottom-up count (valid when count_certified).
  BigUint certified_count;
  bool count_certified = false;

  bool ok() const { return report.clean(); }
};

/// Replays and verifies one certificate against its embedded CNF:
///   1. structure: ids/variables in range, tables well formed;
///   2. decomposability (NNF: checker-computed varsets; OBDD: ordering);
///   3. determinism of or-gates (UP probe per pair, DPLL fallback) —
///      checked against the circuit definitions alone, so the certified
///      count below is the count of the circuit, not "count modulo CNF";
///   4. circuit |= CNF: for every clause c, the circuit conditioned on ~c
///      evaluates to unsatisfiable bottom-up (complete on decomposable
///      circuits);
///   5. CNF |= circuit: by RUP replay of the recorded derivation trace
///      (d-DNNF search tree / OBDD apply steps), or semantically via the
///      trusted DPLL when the certificate carries no trace (SDD);
///   6. model count: recomputed bottom-up with gap factors over
///      cnf.num_vars() variables and compared against the claim.
///
/// Everything is re-derived from the certificate text through the trusted
/// core (certify/up_engine.h + analysis/tseitin.h); no compiler code runs.
CertifyResult CheckCertificate(const Certificate& cert,
                               const CertifyOptions& options = {});

}  // namespace tbc

#endif  // TBC_CERTIFY_CHECKER_H_
