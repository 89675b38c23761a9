#ifndef TBC_PSDD_LEARN_H_
#define TBC_PSDD_LEARN_H_

#include <utility>
#include <vector>

#include "base/guard.h"
#include "base/result.h"
#include "psdd/psdd.h"

namespace tbc {

/// A complete dataset as weighted rows, the shape of the paper's Fig 15
/// course-enrollment table: each row is a complete assignment plus the
/// number of individuals with that assignment.
struct WeightedData {
  std::vector<Assignment> examples;
  std::vector<double> weights;

  /// Total weight (e.g. number of students).
  double TotalWeight() const;

  static WeightedData FromCounts(
      const std::vector<std::pair<Assignment, double>>& rows);
};

/// Compiles `constraint`, learns maximum-likelihood PSDD parameters from
/// the data, and returns the learned PSDD — the full Fig 15 pipeline
/// (knowledge + data -> distribution).
Psdd LearnPsdd(SddManager& mgr, SddId constraint, const WeightedData& data,
               double laplace);

/// Resource-governed, validating variant: rejects malformed data
/// (example/weight length mismatch, wrong assignment width, negative or
/// zero total weight) with kInvalidInput instead of aborting downstream,
/// and charges the circuit traversals against `guard` (one node charge per
/// example, approximating the linear learning pass).
Result<Psdd> LearnPsddBounded(SddManager& mgr, SddId constraint,
                              const WeightedData& data, double laplace,
                              Guard& guard);

/// Empirical KL divergence KL(data || psdd) over the distinct rows
/// (test/evaluation metric; data weights are normalized internally).
/// Aborts where EmpiricalKlChecked refuses, e.g. when the PSDD assigns
/// zero probability to a data row.
double EmpiricalKl(const WeightedData& data, const Psdd& psdd);

/// Fallible variant: returns kInvalidInput when the data is empty or a row
/// has zero probability under the PSDD (KL would be infinite).
Result<double> EmpiricalKlChecked(const WeightedData& data, const Psdd& psdd);

}  // namespace tbc

#endif  // TBC_PSDD_LEARN_H_
