#include "core/solvers.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
#include "compiler/ddnnf_compiler.h"
#include "nnf/queries.h"
#include "sdd/compile.h"
#include "sdd/sdd.h"
#include "vtree/vtree.h"

namespace tbc {

bool CircuitSolvers::DecideSat(const Cnf& cnf) {
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, mgr);
  return IsSatDnnf(mgr, root);
}

BigUint CircuitSolvers::CountSat(const Cnf& cnf) {
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, mgr);
  return ModelCount(mgr, root, cnf.num_vars());
}

double CircuitSolvers::WeightedModelCount(const Cnf& cnf,
                                          const WeightMap& weights) {
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, mgr);
  return Wmc(mgr, root, weights);
}

bool CircuitSolvers::DecideMajSat(const Cnf& cnf) {
  const BigUint count = CountSat(cnf);
  return count * BigUint(2) > BigUint::PowerOfTwo(
                                  static_cast<unsigned>(cnf.num_vars()));
}

BigUint CircuitSolvers::MaxCountOverY(const Cnf& cnf,
                                      const std::vector<Var>& y_vars) {
  // Compile over a constrained vtree (y on the top spine, Fig 10b), then
  // one max-sum pass on the export [Oztok, Choi & Darwiche 2016].
  std::vector<Var> bottom;
  for (Var v = 0; v < cnf.num_vars(); ++v) {
    if (std::find(y_vars.begin(), y_vars.end(), v) == y_vars.end()) {
      bottom.push_back(v);
    }
  }
  TBC_CHECK_MSG(!bottom.empty(), "E-MAJSAT needs at least one counting var");
  SddManager sdd(Vtree::Constrained(y_vars, bottom));
  const SddId f = CompileCnf(sdd, cnf);
  if (f == sdd.False()) return BigUint(0);
  NnfManager nnf;
  const NnfId root = sdd.ToNnf(f, nnf);
  WeightMap ones(cnf.num_vars());
  const MaxSumResult r = MaxSumWmc(nnf, root, ones, y_vars);
  // Counts are exact in double up to 2^53; our workloads stay far below.
  return BigUint(static_cast<uint64_t>(std::llround(r.value)));
}

bool CircuitSolvers::DecideEMajSat(const Cnf& cnf,
                                   const std::vector<Var>& y_vars) {
  const size_t num_z = cnf.num_vars() - y_vars.size();
  return MaxCountOverY(cnf, y_vars) * BigUint(2) >
         BigUint::PowerOfTwo(static_cast<unsigned>(num_z));
}

bool CircuitSolvers::DecideMajMajSat(const Cnf& cnf,
                                     const std::vector<Var>& y_vars) {
  TBC_CHECK_MSG(y_vars.size() <= 24, "MAJMAJSAT enumeration limited to 24 y-vars");
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, mgr);
  const size_t num_z = cnf.num_vars() - y_vars.size();
  const double z_half = std::ldexp(1.0, static_cast<int>(num_z)) / 2.0;

  uint64_t majority_count = 0;
  const uint64_t num_y = 1ull << y_vars.size();
  for (uint64_t bits = 0; bits < num_y; ++bits) {
    // Assert y by zeroing the weights of the contradicted literals; the
    // counting pass is then linear per instantiation.
    WeightMap w(cnf.num_vars());
    for (size_t k = 0; k < y_vars.size(); ++k) {
      const bool value = (bits >> k) & 1;
      w.Set(Lit(y_vars[k], !value), 0.0);
    }
    if (Wmc(mgr, root, w) > z_half) ++majority_count;
  }
  return majority_count * 2 > num_y;
}

}  // namespace tbc
