#ifndef TBC_BAYES_CIRCUIT_INFERENCE_H_
#define TBC_BAYES_CIRCUIT_INFERENCE_H_

#include <memory>
#include <vector>

#include "base/guard.h"
#include "base/result.h"
#include "bayes/network.h"
#include "bayes/wmc_encoding.h"
#include "nnf/nnf.h"

namespace tbc {

/// Circuit-based Bayesian network inference: the reduction pipeline the
/// paper's first role is about (§2-§3). The network is encoded to CNF
/// [Darwiche 2002], compiled once into a Decision-DNNF, and all four
/// queries run as polytime passes on the compiled circuit:
///   MAR (PP)     — weighted model count with evidence-adjusted weights;
///   all-marginals — one up+down differential pass [Darwiche 2003];
///   MPE (NP)     — maximizer pass with traceback;
///   MAP (NP^PP)  — constrained-vtree SDD + max-sum pass
///                  [Oztok, Choi & Darwiche 2016];
///   SDP (PP^PP)  — expectation over observable instantiations, each a
///                  linear WMC pass on the same compiled circuit.
class CompiledBayesNet {
 public:
  explicit CompiledBayesNet(const BayesianNetwork& net);

  /// Resource-governed construction: the one-time Decision-DNNF compile —
  /// the only potentially exponential step of the pipeline — runs under
  /// `guard`; a deadline/budget trip returns the guard's typed status
  /// instead of compiling without bound.
  static Result<CompiledBayesNet> CompileBounded(const BayesianNetwork& net,
                                                 Guard& guard);

  /// Pr(evidence).
  double ProbEvidence(const BnInstantiation& evidence);

  /// Unnormalized marginal Pr(v = value, evidence).
  double Marginal(BnVar v, int value, const BnInstantiation& evidence);

  /// Pr(v = value | evidence); aborts if Pr(evidence) == 0.
  double Posterior(BnVar v, int value, const BnInstantiation& evidence);

  /// Fallible variant: kInvalidInput (not an abort) when the evidence has
  /// zero probability or contradicts v = value.
  Result<double> PosteriorChecked(BnVar v, int value,
                                  const BnInstantiation& evidence);

  /// All marginals Pr(v = x, evidence) in one differential pass;
  /// result[v][x].
  std::vector<std::vector<double>> AllMarginals(const BnInstantiation& evidence);

  struct MpeOutcome {
    double probability = 0.0;  // Pr(x, e) of the maximizer
    BnInstantiation instantiation;
  };
  /// Most probable explanation completing the evidence.
  MpeOutcome Mpe(const BnInstantiation& evidence);

  struct MapOutcome {
    double probability = 0.0;  // max_y Pr(y, e)
    std::vector<int> values;   // parallel to map_vars
  };
  /// MAP over `map_vars`: compiles a second circuit over a vtree
  /// constrained for the split (rest | map indicators), then one max-sum
  /// pass. Exact.
  MapOutcome Map(const std::vector<BnVar>& map_vars,
                 const BnInstantiation& evidence);

  /// Same-decision probability of [Pr(decision_var=d_value|e) >= threshold]
  /// under future observation of `observables`. Exponential in
  /// |observables| with a linear circuit pass per instantiation (compile
  /// once, query many); the fully polytime-per-node constrained algorithm
  /// of [Oztok et al. 2016] is future work recorded in DESIGN.md.
  double Sdp(BnVar decision_var, int d_value, double threshold,
             const std::vector<BnVar>& observables,
             const BnInstantiation& evidence);

  /// Size (edges) of the compiled Decision-DNNF.
  size_t CircuitSize() const;
  const WmcEncoding& encoding() const { return encoding_; }

 private:
  // Builds the encoding but defers circuit compilation (CompileBounded
  // runs it under a guard and fills root_ itself).
  struct DeferCompileTag {};
  CompiledBayesNet(const BayesianNetwork& net, DeferCompileTag);

  const BayesianNetwork& net_;
  WmcEncoding encoding_;
  NnfManager mgr_;
  NnfId root_;
};

}  // namespace tbc

#endif  // TBC_BAYES_CIRCUIT_INFERENCE_H_
