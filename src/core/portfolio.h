#ifndef TBC_CORE_PORTFOLIO_H_
#define TBC_CORE_PORTFOLIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/guard.h"
#include "base/result.h"
#include "bayes/network.h"

namespace tbc {

/// Which engine produced a portfolio answer.
enum class PortfolioEngine : uint8_t { kSdd, kDdnnf, kVarElim };

inline const char* PortfolioEngineName(PortfolioEngine e) {
  switch (e) {
    case PortfolioEngine::kSdd:
      return "sdd";
    case PortfolioEngine::kDdnnf:
      return "ddnnf";
    case PortfolioEngine::kVarElim:
      return "varelim";
  }
  return "unknown";
}

/// A portfolio answer: the value, the engine that produced it, and a
/// human-readable record of every engine that was tried and refused first.
struct PortfolioAnswer {
  double value = 0.0;
  PortfolioEngine engine = PortfolioEngine::kVarElim;
  std::vector<std::string> attempts;  // e.g. "sdd: deadline exceeded (...)"
};

/// Graceful-degradation facade for Bayesian-network queries: each engine is
/// tried in order — SDD compile + WMC, then top-down d-DNNF compile + WMC,
/// then direct variable elimination — and the first one to finish inside
/// its slice of the budget wins. Stage deadlines are carved from the
/// remaining overall deadline (1/3, then 1/2, then all of what is left),
/// so an early engine that stalls cannot starve the later, more robust
/// ones. A kInvalidInput from any engine aborts the cascade (the input
/// will not get better); refusals (deadline/budget/cancel) fall through.
/// If every engine refuses, the last refusal is returned.
Result<PortfolioAnswer> ProbEvidenceWithFallback(const BayesianNetwork& net,
                                                 const BnInstantiation& evidence,
                                                 const Budget& budget);

/// Unnormalized marginal Pr(v = value, evidence) with the same cascade.
/// Evidence contradicting v = value is kInvalidInput.
Result<PortfolioAnswer> MarginalWithFallback(const BayesianNetwork& net,
                                             BnVar v, int value,
                                             const BnInstantiation& evidence,
                                             const Budget& budget);

/// Pr(v = value | evidence) with the same cascade; zero-probability
/// evidence is kInvalidInput.
Result<PortfolioAnswer> PosteriorWithFallback(const BayesianNetwork& net,
                                              BnVar v, int value,
                                              const BnInstantiation& evidence,
                                              const Budget& budget);

}  // namespace tbc

#endif  // TBC_CORE_PORTFOLIO_H_
