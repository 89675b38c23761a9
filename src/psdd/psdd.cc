#include "psdd/psdd.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

#include "base/check.h"
#include "base/observability.h"
#include "base/strings.h"

#ifdef TBC_VALIDATE
#include "analysis/validate.h"
#endif

namespace tbc {

namespace {
uint64_t BuildKey(VtreeId v, SddId f) {
  return (static_cast<uint64_t>(v) << 32) | f;
}

Obs Observed(const PsddEvidence& e, Var x) {
  return x < e.size() ? e[x] : Obs::kUnknown;
}

// Whether the indicator of literal `l` is 1 under evidence `e`.
bool Allows(const PsddEvidence& e, Lit l) {
  const Obs o = Observed(e, l.var());
  return o == Obs::kUnknown || (o == Obs::kTrue) == l.positive();
}

}  // namespace

Psdd::Psdd(SddManager& sdd, SddId base) : sdd_(&sdd) {
  TBC_CHECK_MSG(base != sdd.False(), "PSDD base must be satisfiable");
  root_ = Build(sdd.vtree().root(), base);
#ifdef TBC_VALIDATE
  ValidatePsddOrDie(*this, "Psdd::Psdd");
#endif
}

PsddId Psdd::AddNode(Kind kind, VtreeId v, uint32_t lit_code,
                     double theta_true, Span<const Element> elements) {
  kind_.push_back(kind);
  vtree_.push_back(v);
  payload_.push_back(kind == Kind::kTop ? static_cast<uint32_t>(vtree().var(v))
                                        : lit_code);
  theta_true_.push_back(theta_true);
  elems_.insert(elems_.end(), elements.begin(), elements.end());
  elem_begin_.push_back(static_cast<uint32_t>(elems_.size()));
  return static_cast<PsddId>(kind_.size() - 1);
}

PsddId Psdd::Build(VtreeId v, SddId f) {
  const uint64_t key = BuildKey(v, f);
  if (const PsddId* hit = build_memo_.Find(key)) return *hit;

  const Vtree& vt = sdd_->vtree();
  PsddId id = kInvalidPsdd;
  if (vt.IsLeaf(v)) {
    if (f == sdd_->True()) {
      id = AddNode(Kind::kTop, v, 0, 0.5, {});
    } else {
      TBC_CHECK_MSG(sdd_->IsLiteral(f), "non-literal SDD node at leaf vtree");
      id = AddNode(Kind::kLiteral, v, sdd_->literal(f).code(), 0.5, {});
    }
  } else {
    std::vector<Element> els;
    if (f == sdd_->True()) {
      els.push_back(
          {Build(vt.left(v), sdd_->True()), Build(vt.right(v), sdd_->True()), 1.0});
    } else if (sdd_->IsDecision(f) && sdd_->vtree_node(f) == v) {
      for (const auto& [p, s] : sdd_->elements(f)) {
        if (s == sdd_->False()) continue;  // probability-zero region
        els.push_back({Build(vt.left(v), p), Build(vt.right(v), s), 0.0});
      }
      TBC_CHECK(!els.empty());
      for (auto& e : els) {
        e.theta = 1.0 / static_cast<double>(els.size());
      }
    } else {
      // f lives strictly inside one side of v: insert a pass-through node.
      const VtreeId vf = sdd_->vtree_node(f);
      if (vt.IsAncestorOrSelf(vt.left(v), vf)) {
        els.push_back(
            {Build(vt.left(v), f), Build(vt.right(v), sdd_->True()), 1.0});
      } else {
        els.push_back(
            {Build(vt.left(v), sdd_->True()), Build(vt.right(v), f), 1.0});
      }
    }
    id = AddNode(Kind::kDecision, v, 0, 0.5, els);
  }
  build_memo_.Insert(key, id);
  return id;
}

size_t Psdd::Size() const { return elems_.size(); }

template <typename T, typename Leaf, typename Add>
void Psdd::Ascend(T zero, Leaf&& leaf, Add&& add, std::vector<T>& value) const {
  const size_t num = num_nodes();
  value.resize(num);
  for (size_t n = 0; n < num; ++n) {
    if (kind_[n] != Kind::kDecision) {
      value[n] = leaf(n);
      continue;
    }
    T acc = zero;
    for (uint32_t k = elem_begin_[n]; k < elem_begin_[n + 1]; ++k) {
      const Element& el = elems_[k];
      add(acc, el.theta, value[el.prime], value[el.sub]);
    }
    value[n] = acc;
  }
}

template <typename Choose, typename TopValue>
Assignment Psdd::Descend(Choose&& choose, TopValue&& top_value) const {
  Assignment x(num_vars(), false);
  std::vector<PsddId> stack = {root_};
  while (!stack.empty()) {
    const PsddId n = stack.back();
    stack.pop_back();
    switch (kind_[n]) {
      case Kind::kLiteral: {
        const Lit l = literal(n);
        x[l.var()] = l.positive();
        break;
      }
      case Kind::kTop:
        x[payload_[n]] = top_value(n);
        break;
      case Kind::kDecision: {
        const Element& el = elems_[elem_begin_[n] + choose(n)];
        stack.push_back(el.prime);
        stack.push_back(el.sub);
        break;
      }
    }
  }
  return x;
}

void Psdd::ValuePass(const PsddEvidence& e, std::vector<double>& value) const {
  TBC_COUNT("psdd.eval.value_passes");
  Ascend(
      0.0,
      [&](PsddId n) {
        if (kind_[n] == Kind::kLiteral) return Allows(e, literal(n)) ? 1.0 : 0.0;
        const Obs o = Observed(e, payload_[n]);
        return o == Obs::kUnknown ? 1.0
               : o == Obs::kTrue  ? theta_true_[n]
                                  : 1.0 - theta_true_[n];
      },
      [](double& sum, double theta, double p, double s) { sum += theta * p * s; },
      value);
}

void Psdd::DerivativePass(const std::vector<double>& value,
                          std::vector<double>& deriv) const {
  deriv.assign(num_nodes(), 0.0);
  deriv[root_] = 1.0;
  // Parents (higher ids) before children.
  for (size_t n = num_nodes(); n-- > 0;) {
    if (kind_[n] != Kind::kDecision || deriv[n] == 0.0) continue;
    for (uint32_t k = elem_begin_[n]; k < elem_begin_[n + 1]; ++k) {
      const Element& el = elems_[k];
      deriv[el.prime] += deriv[n] * el.theta * value[el.sub];
      deriv[el.sub] += deriv[n] * el.theta * value[el.prime];
    }
  }
}

double Psdd::Probability(const Assignment& x) const {
  static thread_local PsddEvidence e;
  e.resize(num_vars());
  for (Var v = 0; v < num_vars(); ++v) {
    e[v] = x[v] ? Obs::kTrue : Obs::kFalse;
  }
  return ProbabilityEvidence(e);
}

double Psdd::ProbabilityEvidence(const PsddEvidence& e) const {
  // Reuse one scratch buffer per thread across queries: ValuePass writes
  // every slot, so stale contents are harmless.
  static thread_local std::vector<double> value;
  ValuePass(e, value);
  return value[root_];
}

std::vector<double> Psdd::Marginals(const PsddEvidence& e, bool normalized) const {
  std::vector<double> value;
  ValuePass(e, value);
  std::vector<double> deriv;
  DerivativePass(value, deriv);
  std::vector<double> marginal(num_vars(), 0.0);
  for (size_t n = 0; n < num_nodes(); ++n) {
    if (kind_[n] == Kind::kLiteral) {
      const Lit l = literal(n);
      const bool allows_true = Observed(e, l.var()) != Obs::kFalse;
      if (l.positive() && allows_true) marginal[l.var()] += deriv[n];
    } else if (kind_[n] == Kind::kTop) {
      const Var x = payload_[n];
      if (Observed(e, x) != Obs::kFalse) marginal[x] += deriv[n] * theta_true_[n];
    }
  }
  if (normalized) {
    const double pe = value[root_];
    TBC_CHECK_MSG(pe > 0.0, "zero-probability evidence");
    for (double& m : marginal) m /= pe;
  }
  return marginal;
}

Psdd::Mpe Psdd::MostProbable(const PsddEvidence& e) const {
  std::vector<double> best;
  Ascend(
      0.0,
      [&](PsddId n) {
        if (kind_[n] == Kind::kLiteral) return Allows(e, literal(n)) ? 1.0 : 0.0;
        const Obs o = Observed(e, payload_[n]);
        const double t = theta_true_[n];
        return o == Obs::kUnknown ? std::max(t, 1.0 - t)
               : o == Obs::kTrue  ? t
                                  : 1.0 - t;
      },
      [](double& m, double theta, double p, double s) {
        m = std::max(m, theta * p * s);
      },
      best);

  Mpe result;
  result.probability = best[root_];
  if (result.probability <= 0.0) {
    result.assignment.assign(num_vars(), false);
    return result;
  }
  // Traceback. Ties break on the first maximizing element in storage
  // order, so the assignment is deterministic.
  result.assignment = Descend(
      [&](PsddId n) {
        double m = -1.0;
        size_t chosen = 0;
        const Span<const Element> els = elements(n);
        for (size_t i = 0; i < els.size(); ++i) {
          const double v = els[i].theta * best[els[i].prime] * best[els[i].sub];
          if (v > m) {
            m = v;
            chosen = i;
          }
        }
        return chosen;
      },
      [&](PsddId n) {
        const Obs o = Observed(e, payload_[n]);
        return o == Obs::kUnknown ? theta_true_[n] >= 0.5 : o == Obs::kTrue;
      });
  return result;
}

Assignment Psdd::Sample(Rng& rng) const {
  return Descend(
      [&](PsddId n) {
        double u = rng.Uniform();
        const Span<const Element> els = elements(n);
        for (size_t i = 0; i < els.size(); ++i) {
          if (u < els[i].theta) return i;
          u -= els[i].theta;
        }
        return els.size() - 1;
      },
      [&](PsddId n) { return rng.Flip(theta_true_[n]); });
}

void Psdd::ResetCounts() {
  count_true_.assign(num_nodes(), 0.0);
  count_total_.assign(num_nodes(), 0.0);
  elem_count_.assign(elems_.size(), 0.0);
}

void Psdd::CountExample(const Assignment& x, double weight) {
  // Bottom-up support satisfaction for every node under this example.
  std::vector<int8_t> sat;
  Ascend<int8_t>(
      0,
      [&](PsddId n) -> int8_t {
        if (kind_[n] == Kind::kTop) return 1;
        const Lit l = literal(n);
        return x[l.var()] == l.positive() ? 1 : 0;
      },
      [](int8_t& s, double, int8_t p, int8_t q) {
        if (p && q) s = 1;
      },
      sat);
  if (!sat[root_]) return;  // example outside the base: contributes nothing

  // Descent along the active elements.
  Descend(
      [&](PsddId n) {
        count_total_[n] += weight;
        // A reached node is satisfied, so exactly one element is active.
        uint32_t k = elem_begin_[n];
        while (!(sat[elems_[k].prime] && sat[elems_[k].sub])) ++k;
        elem_count_[k] += weight;
        return k - elem_begin_[n];
      },
      [&](PsddId n) {
        count_total_[n] += weight;
        if (x[payload_[n]]) count_true_[n] += weight;
        return x[payload_[n]];
      });
}

void Psdd::MaximizeParameters(double laplace) {
  for (size_t n = 0; n < num_nodes(); ++n) {
    if (kind_[n] == Kind::kTop) {
      const double denom = count_total_[n] + 2.0 * laplace;
      theta_true_[n] = denom > 0.0 ? (count_true_[n] + laplace) / denom : 0.5;
    } else if (kind_[n] == Kind::kDecision) {
      const double k = static_cast<double>(elem_begin_[n + 1] - elem_begin_[n]);
      const double denom = count_total_[n] + laplace * k;
      for (uint32_t j = elem_begin_[n]; j < elem_begin_[n + 1]; ++j) {
        elems_[j].theta =
            denom > 0.0 ? (elem_count_[j] + laplace) / denom : 1.0 / k;
      }
    }
  }
}

void Psdd::LearnParameters(const std::vector<Assignment>& data,
                           const std::vector<double>& weights, double laplace) {
  ResetCounts();
  for (size_t i = 0; i < data.size(); ++i) {
    CountExample(data[i], weights.empty() ? 1.0 : weights[i]);
  }
  MaximizeParameters(laplace);
#ifdef TBC_VALIDATE
  ValidatePsddOrDie(*this, "Psdd::LearnParameters");
#endif
}

double Psdd::LogLikelihood(const std::vector<Assignment>& data) const {
  return LogLikelihoodBounded(data, Guard::Unlimited()).value();
}

Result<double> Psdd::LogLikelihoodBounded(const std::vector<Assignment>& data,
                                          Guard& guard) const {
  TBC_RETURN_IF_ERROR(guard.Check());
  double ll = 0.0;
  TBC_RETURN_IF_ERROR(ForRange(guard, 0, data.size(), 1, [&](size_t i) {
    ll += std::log(Probability(data[i]));
  }));
  TBC_RETURN_IF_ERROR(guard.Check());
  return ll;
}

double Psdd::LearnParametersEm(const std::vector<PsddEvidence>& data,
                               const std::vector<double>& weights,
                               double laplace, size_t iterations) {
  double ll = 0.0;
  std::vector<double> value;
  std::vector<double> deriv;
  for (size_t iter = 0; iter < iterations; ++iter) {
    // E-step: expected activation counts under the current parameters.
    ResetCounts();
    ll = 0.0;
    for (size_t i = 0; i < data.size(); ++i) {
      const double w = weights.empty() ? 1.0 : weights[i];
      ValuePass(data[i], value);
      const double pe = value[root_];
      TBC_CHECK_MSG(pe > 0.0, "EM example has zero probability");
      ll += w * std::log(pe);
      DerivativePass(value, deriv);
      for (size_t n = 0; n < num_nodes(); ++n) {
        if (deriv[n] == 0.0) continue;
        if (kind_[n] == Kind::kDecision) {
          for (uint32_t k = elem_begin_[n]; k < elem_begin_[n + 1]; ++k) {
            const Element& el = elems_[k];
            const double flow =
                deriv[n] * el.theta * value[el.prime] * value[el.sub];
            elem_count_[k] += w * flow / pe;
            count_total_[n] += w * flow / pe;
          }
        } else if (kind_[n] == Kind::kTop) {
          const double p_true =
              Observed(data[i], payload_[n]) == Obs::kFalse ? 0.0 : theta_true_[n];
          // Expected activations: context flow splits by the posterior of
          // X given the evidence and the context.
          const double context = deriv[n] * value[n] / pe;
          if (value[n] > 0.0) {
            count_total_[n] += w * context;
            count_true_[n] += w * context * (p_true / value[n]);
          }
        }
      }
    }
    // M-step: identical normalization to complete-data learning.
    MaximizeParameters(laplace);
  }
#ifdef TBC_VALIDATE
  ValidatePsddOrDie(*this, "Psdd::LearnParametersEm");
#endif
  return ll;
}

std::string Psdd::SerializeParameters() const {
  std::string out = "psdd-params " + std::to_string(num_nodes()) + "\n";
  char buffer[64];
  for (PsddId n = 0; n < num_nodes(); ++n) {
    if (kind_[n] == Kind::kTop) {
      std::snprintf(buffer, sizeof(buffer), "P %u %.17g\n", n, theta_true_[n]);
      out += buffer;
    } else if (kind_[n] == Kind::kDecision) {
      out += "P " + std::to_string(n);
      for (const Element& el : elements(n)) {
        std::snprintf(buffer, sizeof(buffer), " %.17g", el.theta);
        out += buffer;
      }
      out += "\n";
    }
  }
  return out;
}

Status Psdd::LoadParameters(const std::string& text) {
  // Written into copies, kept only once the whole text has been read.
  std::vector<double> theta_true = theta_true_;
  std::vector<Element> elems = elems_;
  bool saw_header = false;
  size_t line_no = 0;
  auto bad = [&](const std::string& what) { return BadLine(line_no, what); };
  for (const std::string& raw : SplitChar(text, '\n')) {
    ++line_no;
    const std::string_view line = StripWhitespace(raw);
    if (line.empty() || line[0] == 'c') continue;
    if (!saw_header) {
      const std::vector<std::string> tok = SplitWhitespace(line);
      uint64_t count = 0;
      if (tok.size() != 2 || tok[0] != "psdd-params" ||
          !ParseUint64(tok[1], &count)) {
        return bad("missing psdd-params header");
      }
      if (count != num_nodes()) return bad("node count mismatch");
      saw_header = true;
      continue;
    }
    PsddParamLine p;
    if (const Status read = ReadPsddParamLine(line, &p); !read.ok()) {
      return bad(read.message());
    }
    if (p.node >= num_nodes()) return bad("node id out of range");
    const PsddId n = static_cast<PsddId>(p.node);
    if (kind_[n] == Kind::kTop) {
      if (p.thetas.size() != 1 || !(p.thetas[0] >= 0.0 && p.thetas[0] <= 1.0)) {
        return bad("bad Bernoulli parameter");
      }
      theta_true[n] = p.thetas[0];
    } else if (kind_[n] == Kind::kDecision) {
      if (p.thetas.size() != elements(n).size()) {
        return bad("element count mismatch");
      }
      double total = 0.0;
      for (size_t i = 0; i < p.thetas.size(); ++i) {
        if (p.thetas[i] < 0.0) return bad("negative parameter");
        total += p.thetas[i];
        elems[elem_begin_[n] + i].theta = p.thetas[i];
      }
      if (std::abs(total - 1.0) > 1e-6) {
        return bad("element parameters do not sum to 1");
      }
    } else {
      return bad("parameters on a literal node");
    }
  }
  if (!saw_header) return Status::InvalidInput("missing psdd-params header");
  theta_true_ = std::move(theta_true);
  elems_ = std::move(elems);
#ifdef TBC_VALIDATE
  ValidatePsddOrDie(*this, "Psdd::LoadParameters");
#endif
  return Status::Ok();
}

double Psdd::KlDivergence(const Psdd& other) const {
  TBC_CHECK_MSG(sdd_ == other.sdd_ && num_nodes() == other.num_nodes() &&
                    root_ == other.root_,
                "KL divergence requires identical PSDD structure");
  // Context probabilities under *this*: probability each node is reached
  // on a sample's root-to-leaves descent. Children precede parents in id
  // order, so iterate in reverse.
  std::vector<double> ctx(num_nodes(), 0.0);
  ctx[root_] = 1.0;
  double kl = 0.0;
  for (PsddId n = num_nodes(); n-- > 0;) {
    TBC_CHECK_MSG(kind_[n] == other.kind_[n] && vtree_[n] == other.vtree_[n],
                  "KL divergence requires identical PSDD structure");
    if (ctx[n] == 0.0) continue;
    switch (kind_[n]) {
      case Kind::kLiteral:
        break;
      case Kind::kTop: {
        auto term = [](double a, double b) {
          return a > 0.0 ? a * std::log(a / b) : 0.0;
        };
        const double p = theta_true_[n];
        const double q = other.theta_true_[n];
        kl += ctx[n] * (term(p, q) + term(1.0 - p, 1.0 - q));
        break;
      }
      case Kind::kDecision: {
        const Span<const Element> ps = elements(n);
        const Span<const Element> qs = other.elements(n);
        TBC_CHECK(ps.size() == qs.size());
        for (size_t i = 0; i < ps.size(); ++i) {
          const double tp = ps[i].theta;
          const double tq = qs[i].theta;
          TBC_CHECK(ps[i].prime == qs[i].prime && ps[i].sub == qs[i].sub);
          if (tp > 0.0) {
            kl += ctx[n] * tp * std::log(tp / tq);
            ctx[ps[i].prime] += ctx[n] * tp;
            ctx[ps[i].sub] += ctx[n] * tp;
          }
        }
        break;
      }
    }
  }
  return kl;
}

Psdd Psdd::Multiply(const Psdd& other, double* normalization_constant) const {
  TBC_CHECK_MSG(sdd_ == other.sdd_, "PSDD multiply requires a shared manager");
  Psdd out(sdd_);

  struct PairResult {
    PsddId node = kInvalidPsdd;
    double scale = 0.0;
  };
  FlatMap<uint64_t, PairResult> memo;
  memo.reserve(num_nodes() + other.num_nodes());
  std::function<PairResult(PsddId, PsddId)> mul = [&](PsddId a,
                                                      PsddId b) -> PairResult {
    const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
    if (const PairResult* hit = memo.Find(key)) return *hit;
    const VtreeId v = vtree_[a];
    TBC_CHECK(v == other.vtree_[b]);
    const Kind ka = kind_[a];
    const Kind kb = other.kind_[b];
    PairResult r;
    if (ka == Kind::kLiteral && kb == Kind::kLiteral) {
      if (payload_[a] == other.payload_[b]) {
        r.scale = 1.0;
        r.node = out.AddNode(Kind::kLiteral, v, payload_[a], 0.5, {});
      }  // complementary literals: scale stays 0 (empty product)
    } else if (ka == Kind::kLiteral || kb == Kind::kLiteral) {
      const uint32_t lit_code = ka == Kind::kLiteral ? payload_[a] : other.payload_[b];
      const double theta = ka == Kind::kLiteral ? other.theta_true_[b] : theta_true_[a];
      r.scale = Lit::FromCode(lit_code).positive() ? theta : 1.0 - theta;
      if (r.scale > 0.0) r.node = out.AddNode(Kind::kLiteral, v, lit_code, 0.5, {});
    } else if (ka == Kind::kTop && kb == Kind::kTop) {
      const double r1 = theta_true_[a] * other.theta_true_[b];
      const double r0 = (1.0 - theta_true_[a]) * (1.0 - other.theta_true_[b]);
      r.scale = r0 + r1;
      if (r.scale > 0.0) r.node = out.AddNode(Kind::kTop, v, 0, r1 / r.scale, {});
    } else {
      TBC_CHECK(ka == Kind::kDecision && kb == Kind::kDecision);
      std::vector<Element> els;
      for (const Element& ea : elements(a)) {
        for (const Element& eb : other.elements(b)) {
          const PairResult p = mul(ea.prime, eb.prime);
          if (p.scale == 0.0 || p.node == kInvalidPsdd) continue;
          const PairResult s = mul(ea.sub, eb.sub);
          if (s.scale == 0.0 || s.node == kInvalidPsdd) continue;
          const double raw = ea.theta * eb.theta * p.scale * s.scale;
          if (raw == 0.0) continue;
          els.push_back({p.node, s.node, raw});
          r.scale += raw;
        }
      }
      // Empty: disjoint supports, and the scale stays 0.
      if (!els.empty()) {
        for (Element& el : els) el.theta /= r.scale;
        r.node = out.AddNode(Kind::kDecision, v, 0, 0.5, els);
      }
    }
    memo.Insert(key, r);
    return r;
  };

  const PairResult root = mul(root_, other.root_);
  TBC_CHECK_MSG(root.scale > 0.0, "PSDD product has empty support");
  out.root_ = root.node;
  if (normalization_constant != nullptr) *normalization_constant = root.scale;
#ifdef TBC_VALIDATE
  ValidatePsddOrDie(out, "Psdd::Multiply");
#endif
  return out;
}

}  // namespace tbc
