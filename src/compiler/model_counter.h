#ifndef TBC_COMPILER_MODEL_COUNTER_H_
#define TBC_COMPILER_MODEL_COUNTER_H_

#include "base/bigint.h"
#include "base/guard.h"
#include "base/result.h"
#include "logic/cnf.h"

namespace tbc {

/// Exact #SAT / WMC by exhaustive DPLL with component caching — the
/// sharpSAT architecture (paper §2.1, footnote 3). It runs the same search
/// as DdnnfCompiler, the one Dpll driver (compiler/subproblem.h): keeping the
/// trace of that search yields a Decision-DNNF [Huang & Darwiche 2007],
/// which is what DdnnfCompiler does. This counter evaluates the search in a
/// count or weight algebra instead and builds no circuit, so it makes the
/// same decisions and cache hits as the compiler.
class ModelCounter {
 public:
  struct Stats {
    uint64_t decisions = 0;
    uint64_t cache_hits = 0;
    /// Times a nonzero intermediate WMC value left the normal double
    /// range and was carried by the log-space accumulator instead of
    /// being flushed to 0.0 (see base/logspace.h).
    uint64_t underflow_rescues = 0;
  };

  /// Exact model count over cnf.num_vars() variables. Unbounded.
  BigUint Count(const Cnf& cnf);

  /// Exact weighted model count (weights sized to cnf.num_vars()).
  /// Unbounded.
  ///
  /// Accumulation is log-space (ScaledDouble: mantissa + explicit
  /// power-of-two exponent), so intermediate products below DBL_MIN are
  /// carried exactly instead of flushing to 0.0; the double returned is
  /// the correctly rounded final value whenever it is representable.
  /// While every intermediate fits in a normal double the result is
  /// bit-identical to the historical plain-double accumulation.
  double Wmc(const Cnf& cnf, const WeightMap& weights);

  /// Resource-governed variants: decisions, cache entries (as nodes) and
  /// wall-clock are charged against `guard`; a trip returns the typed
  /// refusal instead of an answer.
  Result<BigUint> CountBounded(const Cnf& cnf, Guard& guard);
  Result<double> WmcBounded(const Cnf& cnf, const WeightMap& weights,
                            Guard& guard);

  const Stats& stats() const { return stats_; }

 private:
  Stats stats_;
};

}  // namespace tbc

#endif  // TBC_COMPILER_MODEL_COUNTER_H_
