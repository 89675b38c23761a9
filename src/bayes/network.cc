#include "bayes/network.h"

#include <cmath>

#include "base/check.h"

namespace tbc {

BnVar BayesianNetwork::AddVariable(std::string name, uint32_t cardinality,
                                   std::vector<BnVar> parents,
                                   std::vector<double> cpt) {
  TBC_CHECK(cardinality >= 2);
  size_t rows = 1;
  for (BnVar p : parents) {
    TBC_CHECK_MSG(p < num_vars(), "parents must be added before children");
    rows *= cards_[p];
  }
  TBC_CHECK_MSG(cpt.size() == rows * cardinality, "CPT size mismatch");
  for (size_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (uint32_t k = 0; k < cardinality; ++k) sum += cpt[r * cardinality + k];
    TBC_CHECK_MSG(std::abs(sum - 1.0) < 1e-6, "CPT row does not sum to 1");
  }
  names_.push_back(std::move(name));
  cards_.push_back(cardinality);
  parents_.push_back(std::move(parents));
  cpts_.push_back(std::move(cpt));
  return static_cast<BnVar>(num_vars() - 1);
}

BnVar BayesianNetwork::AddBinary(std::string name, std::vector<BnVar> parents,
                                 std::vector<double> cpt_true) {
  std::vector<double> cpt;
  cpt.reserve(2 * cpt_true.size());
  for (double p : cpt_true) {
    cpt.push_back(1.0 - p);  // value 0
    cpt.push_back(p);        // value 1
  }
  return AddVariable(std::move(name), 2, std::move(parents), std::move(cpt));
}

BnVar BayesianNetwork::VarByName(const std::string& name) const {
  for (BnVar v = 0; v < num_vars(); ++v) {
    if (names_[v] == name) return v;
  }
  TBC_CHECK_MSG(false, ("no variable named " + name).c_str());
  return 0;
}

size_t BayesianNetwork::ParentConfigIndex(BnVar v,
                                          const BnInstantiation& inst) const {
  size_t index = 0;
  for (BnVar p : parents_[v]) {
    TBC_DCHECK(inst[p] != kUnobserved);
    index = index * cards_[p] + static_cast<size_t>(inst[p]);
  }
  return index;
}

double BayesianNetwork::Theta(BnVar v, const BnInstantiation& inst,
                              int value) const {
  const size_t row = ParentConfigIndex(v, inst);
  return cpts_[v][row * cards_[v] + static_cast<size_t>(value)];
}

double BayesianNetwork::JointProbability(const BnInstantiation& inst) const {
  TBC_DCHECK(inst.size() == num_vars());
  double p = 1.0;
  for (BnVar v = 0; v < num_vars(); ++v) p *= Theta(v, inst, inst[v]);
  return p;
}

uint64_t BayesianNetwork::NumInstantiations() const {
  uint64_t n = 1;
  for (uint32_t c : cards_) {
    n *= c;
    TBC_CHECK_MSG(n <= (1ull << 40), "instantiation space too large");
  }
  return n;
}

BnInstantiation BayesianNetwork::InstantiationAt(uint64_t index) const {
  BnInstantiation inst(num_vars());
  for (size_t v = num_vars(); v-- > 0;) {
    inst[v] = static_cast<int>(index % cards_[v]);
    index /= cards_[v];
  }
  return inst;
}

double BayesianNetwork::MarginalBruteForce(BnVar v, int value,
                                           const BnInstantiation& evidence) const {
  double total = 0.0;
  const uint64_t n = NumInstantiations();
  for (uint64_t i = 0; i < n; ++i) {
    BnInstantiation inst = InstantiationAt(i);
    if (inst[v] != value) continue;
    bool compatible = true;
    for (BnVar u = 0; u < num_vars(); ++u) {
      if (evidence.size() > u && evidence[u] != kUnobserved &&
          evidence[u] != inst[u]) {
        compatible = false;
        break;
      }
    }
    if (compatible) total += JointProbability(inst);
  }
  return total;
}

BnInstantiation BayesianNetwork::Sample(Rng& rng) const {
  BnInstantiation inst(num_vars(), kUnobserved);
  for (BnVar v = 0; v < num_vars(); ++v) {
    double u = rng.Uniform();
    int value = static_cast<int>(cards_[v]) - 1;
    for (int x = 0; x < static_cast<int>(cards_[v]); ++x) {
      const double p = Theta(v, inst, x);
      if (u < p) {
        value = x;
        break;
      }
      u -= p;
    }
    inst[v] = value;
  }
  return inst;
}

BayesianNetwork BayesianNetwork::RandomBinary(size_t num_vars,
                                              size_t max_parents,
                                              uint64_t seed) {
  Rng rng(seed);
  BayesianNetwork net;
  for (size_t v = 0; v < num_vars; ++v) {
    std::vector<BnVar> parents;
    if (v > 0) {
      const size_t count = rng.Below(std::min(max_parents, v) + 1);
      while (parents.size() < count) {
        const BnVar p = static_cast<BnVar>(rng.Below(v));
        bool dup = false;
        for (BnVar q : parents) dup |= q == p;
        if (!dup) parents.push_back(p);
      }
    }
    const size_t rows = 1ull << parents.size();
    std::vector<double> cpt_true(rows);
    for (double& x : cpt_true) x = 0.05 + 0.9 * rng.Uniform();
    net.AddBinary(std::string("x").append(std::to_string(v)),
                  std::move(parents), std::move(cpt_true));
  }
  return net;
}

}  // namespace tbc
