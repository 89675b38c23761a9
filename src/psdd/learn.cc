#include "psdd/learn.h"

#include <cmath>

namespace tbc {

double WeightedData::TotalWeight() const {
  double total = 0.0;
  for (double w : weights) total += w;
  return total;
}

WeightedData WeightedData::FromCounts(
    const std::vector<std::pair<Assignment, double>>& rows) {
  WeightedData data;
  for (const auto& [assignment, count] : rows) {
    data.examples.push_back(assignment);
    data.weights.push_back(count);
  }
  return data;
}

Psdd LearnPsdd(SddManager& mgr, SddId constraint, const WeightedData& data,
               double laplace) {
  Psdd psdd(mgr, constraint);
  psdd.LearnParameters(data.examples, data.weights, laplace);
  return psdd;
}

Result<Psdd> LearnPsddBounded(SddManager& mgr, SddId constraint,
                              const WeightedData& data, double laplace,
                              Guard& guard) {
  if (data.examples.size() != data.weights.size()) {
    return Status::InvalidInput("examples/weights length mismatch: " +
                                std::to_string(data.examples.size()) + " vs " +
                                std::to_string(data.weights.size()));
  }
  if (laplace < 0.0) {
    return Status::InvalidInput("negative Laplace smoothing");
  }
  for (size_t i = 0; i < data.examples.size(); ++i) {
    if (data.examples[i].size() != mgr.num_vars()) {
      return Status::InvalidInput("example " + std::to_string(i) + " has " +
                                  std::to_string(data.examples[i].size()) +
                                  " variables, expected " +
                                  std::to_string(mgr.num_vars()));
    }
    if (data.weights[i] < 0.0) {
      return Status::InvalidInput("negative weight at row " + std::to_string(i));
    }
  }
  if (data.TotalWeight() <= 0.0 && laplace <= 0.0) {
    return Status::InvalidInput("total data weight is zero and no smoothing");
  }
  // Learning is one circuit pass per example: charge it up front so node
  // budgets refuse before the work instead of after.
  TBC_RETURN_IF_ERROR(guard.ChargeNodes(data.examples.size()));
  TBC_RETURN_IF_ERROR(guard.Check());
  return LearnPsdd(mgr, constraint, data, laplace);
}

double EmpiricalKl(const WeightedData& data, const Psdd& psdd) {
  return EmpiricalKlChecked(data, psdd).value();
}

Result<double> EmpiricalKlChecked(const WeightedData& data, const Psdd& psdd) {
  if (data.examples.size() != data.weights.size()) {
    return Status::InvalidInput("examples/weights length mismatch");
  }
  const double total = data.TotalWeight();
  if (total <= 0.0) return Status::InvalidInput("total data weight is zero");
  double kl = 0.0;
  for (size_t i = 0; i < data.examples.size(); ++i) {
    const double p = data.weights[i] / total;
    if (p <= 0.0) continue;
    const double q = psdd.Probability(data.examples[i]);
    if (q <= 0.0) {
      return Status::InvalidInput("PSDD assigns zero probability to data row " +
                                  std::to_string(i) + " (KL is infinite)");
    }
    kl += p * std::log(p / q);
  }
  return kl;
}

}  // namespace tbc
