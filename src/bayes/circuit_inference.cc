#include "bayes/circuit_inference.h"

#include <algorithm>

#include "base/check.h"
#include "compiler/ddnnf_compiler.h"
#include "nnf/queries.h"
#include "sdd/compile.h"
#include "sdd/sdd.h"
#include "vtree/vtree.h"

namespace tbc {

CompiledBayesNet::CompiledBayesNet(const BayesianNetwork& net)
    : net_(net), encoding_(net) {
  DdnnfCompiler compiler;
  root_ = compiler.Compile(encoding_.cnf(), mgr_);
}

CompiledBayesNet::CompiledBayesNet(const BayesianNetwork& net, DeferCompileTag)
    : net_(net), encoding_(net), root_(kInvalidNnf) {}

Result<CompiledBayesNet> CompiledBayesNet::CompileBounded(
    const BayesianNetwork& net, Guard& guard) {
  if (net.num_vars() == 0) return Status::InvalidInput("empty network");
  CompiledBayesNet compiled(net, DeferCompileTag{});
  DdnnfCompiler compiler;
  TBC_ASSIGN_OR_RETURN(
      compiled.root_,
      compiler.CompileBounded(compiled.encoding_.cnf(), compiled.mgr_, guard));
  return compiled;
}

double CompiledBayesNet::ProbEvidence(const BnInstantiation& evidence) {
  return Wmc(mgr_, root_, encoding_.WeightsWithEvidence(evidence));
}

double CompiledBayesNet::Marginal(BnVar v, int value,
                                  const BnInstantiation& evidence) {
  BnInstantiation extended = evidence;
  extended.resize(net_.num_vars(), kUnobserved);
  TBC_CHECK_MSG(extended[v] == kUnobserved || extended[v] == value,
                "marginal contradicts evidence");
  extended[v] = value;
  return ProbEvidence(extended);
}

double CompiledBayesNet::Posterior(BnVar v, int value,
                                   const BnInstantiation& evidence) {
  const double pe = ProbEvidence(evidence);
  TBC_CHECK_MSG(pe > 0.0, "zero-probability evidence");
  return Marginal(v, value, evidence) / pe;
}

Result<double> CompiledBayesNet::PosteriorChecked(
    BnVar v, int value, const BnInstantiation& evidence) {
  if (v >= net_.num_vars()) {
    return Status::InvalidInput("variable " + std::to_string(v) +
                                " out of range");
  }
  if (value < 0 || value >= static_cast<int>(net_.cardinality(v))) {
    return Status::InvalidInput("value " + std::to_string(value) +
                                " out of range for variable " +
                                std::to_string(v));
  }
  if (v < evidence.size() && evidence[v] != kUnobserved &&
      evidence[v] != value) {
    return Status::InvalidInput("query contradicts evidence on variable " +
                                std::to_string(v));
  }
  const double pe = ProbEvidence(evidence);
  if (pe <= 0.0) return Status::InvalidInput("zero-probability evidence");
  return Marginal(v, value, evidence) / pe;
}

std::vector<std::vector<double>> CompiledBayesNet::AllMarginals(
    const BnInstantiation& evidence) {
  const WeightMap w = encoding_.WeightsWithEvidence(evidence);
  const std::vector<double> lit_marginals = MarginalWmc(mgr_, root_, w);
  std::vector<std::vector<double>> out(net_.num_vars());
  for (BnVar v = 0; v < net_.num_vars(); ++v) {
    out[v].resize(net_.cardinality(v));
    for (uint32_t x = 0; x < net_.cardinality(v); ++x) {
      const Lit l = Pos(encoding_.IndicatorVar(v, static_cast<int>(x)));
      out[v][x] = lit_marginals[l.code()];
    }
  }
  return out;
}

CompiledBayesNet::MpeOutcome CompiledBayesNet::Mpe(
    const BnInstantiation& evidence) {
  const WeightMap w = encoding_.WeightsWithEvidence(evidence);
  const MpeResult r = MaxWmc(mgr_, root_, w, encoding_.num_bool_vars());
  MpeOutcome out;
  out.probability = r.weight;
  out.instantiation = encoding_.DecodeModel(r.assignment);
  return out;
}

CompiledBayesNet::MapOutcome CompiledBayesNet::Map(
    const std::vector<BnVar>& map_vars, const BnInstantiation& evidence) {
  // Constrained vtree: MAP-variable indicators on the top right-spine,
  // everything else below (paper Fig 10b).
  std::vector<Var> top;
  for (BnVar v : map_vars) {
    for (Var u : encoding_.IndicatorVars(v)) top.push_back(u);
  }
  std::vector<Var> bottom;
  for (Var u = 0; u < encoding_.num_bool_vars(); ++u) {
    if (std::find(top.begin(), top.end(), u) == top.end()) bottom.push_back(u);
  }
  SddManager sdd(Vtree::Constrained(top, bottom));
  const SddId f = CompileCnf(sdd, encoding_.cnf());
  NnfManager nnf;
  const NnfId root = sdd.ToNnf(f, nnf);

  const WeightMap w = encoding_.WeightsWithEvidence(evidence);
  const MaxSumResult r = MaxSumWmc(nnf, root, w, top);

  MapOutcome out;
  out.probability = r.value;
  out.values.assign(map_vars.size(), kUnobserved);
  // The chosen literals follow `top`: each MAP variable's indicators in
  // value order, of which the true one names the value.
  size_t j = 0;
  for (size_t k = 0; k < map_vars.size(); ++k) {
    for (uint32_t x = 0; x < net_.cardinality(map_vars[k]); ++x) {
      if (r.max_assignment[j++].positive()) out.values[k] = static_cast<int>(x);
    }
  }
  return out;
}

double CompiledBayesNet::Sdp(BnVar decision_var, int d_value, double threshold,
                             const std::vector<BnVar>& observables,
                             const BnInstantiation& evidence) {
  const double pe = ProbEvidence(evidence);
  TBC_CHECK_MSG(pe > 0.0, "zero-probability evidence");
  const bool current =
      Marginal(decision_var, d_value, evidence) / pe >= threshold;

  uint64_t num_y = 1;
  for (BnVar v : observables) num_y *= net_.cardinality(v);
  double sdp = 0.0;
  for (uint64_t code = 0; code < num_y; ++code) {
    BnInstantiation with_y = evidence;
    with_y.resize(net_.num_vars(), kUnobserved);
    uint64_t rest = code;
    for (size_t k = observables.size(); k-- > 0;) {
      with_y[observables[k]] =
          static_cast<int>(rest % net_.cardinality(observables[k]));
      rest /= net_.cardinality(observables[k]);
    }
    const double pye = ProbEvidence(with_y);
    if (pye <= 0.0) continue;
    const bool decision =
        Marginal(decision_var, d_value, with_y) / pye >= threshold;
    if (decision == current) sdp += pye / pe;
  }
  return sdp;
}

size_t CompiledBayesNet::CircuitSize() const { return mgr_.CircuitSize(root_); }

}  // namespace tbc
