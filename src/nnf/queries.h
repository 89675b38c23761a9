#ifndef TBC_NNF_QUERIES_H_
#define TBC_NNF_QUERIES_H_

#include <vector>

#include "base/bigint.h"
#include "base/guard.h"
#include "base/random.h"
#include "base/result.h"
#include "logic/cnf.h"
#include "nnf/nnf.h"

namespace tbc {

/// Polytime queries on tractable NNF circuits (paper §3).
///
/// Preconditions are by construction, not re-checked: IsSatDnnf requires
/// decomposability; the counting queries require decomposability AND
/// determinism (d-DNNF). None require smoothness — or-gate inputs that miss
/// variables are handled with gap factors, the multiplicative correction
/// 2^(#missing) (or Π(W(x)+W(¬x)) for WMC), which is exactly what explicit
/// smoothing would contribute.

/// Linear-time satisfiability of a DNNF circuit (unlocks class NP): a
/// DNNF is satisfiable iff ⊥ does not propagate to the root.
bool IsSatDnnf(NnfManager& mgr, NnfId root);

/// Exact model count of a d-DNNF over variables 0..num_vars-1 (paper Fig 8;
/// unlocks class PP via MAJSAT). Linear in circuit size.
BigUint ModelCount(NnfManager& mgr, NnfId root, size_t num_vars);

/// Weighted model count with per-literal weights (paper §2.1, WMC).
double Wmc(NnfManager& mgr, NnfId root, const WeightMap& weights);

/// Resource-governed variants of the counting kernels. Counting, WMC, MPE,
/// the marginals' upward pass and sampling's counting pass are one pass in
/// schedule order over dense rank-indexed arrays, each in its own algebra,
/// reading or-gate gaps from the root's cached GapPlan
/// (NnfManager::GapPlanCached). Each node reads only inputs of lower rank
/// and iterates its children in a fixed order. The guard is polled
/// throughout; on a trip the partial pass is discarded and the guard's
/// typed refusal is returned.
Result<BigUint> ModelCountBounded(NnfManager& mgr, NnfId root, size_t num_vars,
                                  Guard& guard);
Result<double> WmcBounded(NnfManager& mgr, NnfId root, const WeightMap& weights,
                          Guard& guard);

/// All marginal weighted model counts in one bottom-up + top-down pass
/// [Darwiche 2001, 2003]: returns m with m[l.code()] = WMC(Δ ∧ l) for every
/// literal l over 0..num_vars-1, where num_vars = weights.num_vars(). Both
/// passes run over the root's GapPlan, never a smoothed copy: the upward
/// pass is WmcBounded's, and the downward pass sends dn·g(e) through each
/// or-gate edge e with gap product g(e), while each gap variable (and each
/// variable outside the root) collects its derivative of that product.
/// The guard is polled in both passes.
Result<std::vector<double>> MarginalWmcBounded(NnfManager& mgr, NnfId root,
                                               const WeightMap& weights,
                                               Guard& guard);
std::vector<double> MarginalWmc(NnfManager& mgr, NnfId root,
                                const WeightMap& weights);

/// Minimum number of positive literals over models (minimum cardinality);
/// returns SIZE_MAX if unsatisfiable. Variables not mentioned count 0.
size_t MinCardinality(NnfManager& mgr, NnfId root);

/// Most probable explanation on a d-DNNF: the maximizing assignment and its
/// weight, maximizing Π W(literal) over complete assignments consistent
/// with the circuit. Requires satisfiable circuit.
struct MpeResult {
  double weight = 0.0;
  Assignment assignment;
};
MpeResult MaxWmc(NnfManager& mgr, NnfId root, const WeightMap& weights,
                 size_t num_vars);

/// Resource-governed MaxWmc; see the Bounded counting kernels above.
Result<MpeResult> MaxWmcBounded(NnfManager& mgr, NnfId root,
                                const WeightMap& weights, size_t num_vars,
                                Guard& guard);

/// Draws a uniform random model of a satisfiable d-DNNF over variables
/// 0..num_vars-1 (paper §3: "utilization of tractable circuits for uniform
/// sampling" [Sharma et al. 2018]). One counting pass plus one top-down
/// descent (MaxWmc's traceback with another chooser) choosing or-inputs
/// with probability proportional to their (gap-adjusted) model counts;
/// free variables are fair coin flips.
Assignment SampleModelDnnf(NnfManager& mgr, NnfId root, size_t num_vars,
                           Rng& rng);

/// Clausal entailment (the CE query of the KC map): does the DNNF entail
/// the clause? Decided in linear time by the satisfiability fold with the
/// clause's literals false, which builds nothing; a clause holding both x
/// and ¬x is entailed by anything.
bool EntailsClause(NnfManager& mgr, NnfId root, const Clause& clause);

/// Forgetting (the FO transformation): ∃vars. root, polytime on DNNF —
/// both literals of each forgotten variable are replaced by ⊤, which is
/// sound exactly because and-gates are decomposable. The result is a DNNF
/// (determinism is generally lost). A variable at or above mgr.num_vars()
/// is mentioned nowhere in the manager, so forgetting it changes nothing.
NnfId Forget(NnfManager& mgr, NnfId root, const std::vector<Var>& vars);

/// Constrained max-sum query:  max_y Σ_z W(y, z)  over models of the
/// circuit, where y ranges over `max_vars` and z over the rest of the
/// variables 0..weights.num_vars()-1.
///
/// This solves MAP / E-MAJSAT (classes NP^PP) in one linear pass, and is
/// correct when the circuit is structured by a vtree *constrained* for the
/// split z|y (paper Fig 10b, [Oztok, Choi & Darwiche 2016]): every or-gate
/// touching a max variable must be a decision on max variables only (then
/// max over its inputs is exact), and no and-gate may multiply two inputs
/// that both mention max variables mixed with sums in between. Circuits
/// exported from an SDD over Vtree::Constrained(y, z) satisfy this; this is
/// not checked. The pass runs on the root's GapPlan like WmcBounded: an
/// or-edge's gap variable, and a variable outside the root, contributes
/// max(W(x),W(¬x)) if it is a max variable and W(x)+W(¬x) otherwise, which
/// is what smoothing would contribute, so the circuit need not be smooth.
/// Every max variable must be below weights.num_vars() (checked).
struct MaxSumResult {
  double value = 0.0;
  /// Chosen literals for the max variables, in `max_vars` order.
  std::vector<Lit> max_assignment;
};
MaxSumResult MaxSumWmc(NnfManager& mgr, NnfId root, const WeightMap& weights,
                       const std::vector<Var>& max_vars);

}  // namespace tbc

#endif  // TBC_NNF_QUERIES_H_
