#include "psdd/psdd.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <functional>

#include "base/check.h"
#include "base/observability.h"

#ifdef TBC_VALIDATE
#include "analysis/validate.h"
#endif

namespace tbc {

namespace {
uint64_t BuildKey(VtreeId v, SddId f) {
  return (static_cast<uint64_t>(v) << 32) | f;
}
}  // namespace

Psdd::Psdd(SddManager& sdd, SddId base) : sdd_(&sdd) {
  TBC_CHECK_MSG(base != sdd.False(), "PSDD base must be satisfiable");
  root_ = Build(sdd.vtree().root(), base);
  RebuildArena();
#ifdef TBC_VALIDATE
  ValidatePsddOrDie(*this, "Psdd::Psdd");
#endif
}

PsddId Psdd::Build(VtreeId v, SddId f) {
  const uint64_t key = BuildKey(v, f);
  if (const PsddId* hit = build_memo_.Find(key)) return *hit;

  Node node;
  node.vtree = v;
  const Vtree& vt = sdd_->vtree();
  if (vt.IsLeaf(v)) {
    if (f == sdd_->True()) {
      node.kind = Kind::kTop;
      node.theta_true = 0.5;
    } else {
      TBC_CHECK_MSG(sdd_->IsLiteral(f), "non-literal SDD node at leaf vtree");
      node.kind = Kind::kLiteral;
      node.lit_code = sdd_->literal(f).code();
    }
  } else {
    node.kind = Kind::kDecision;
    if (f == sdd_->True()) {
      node.elements.push_back(
          {Build(vt.left(v), sdd_->True()), Build(vt.right(v), sdd_->True()), 1.0});
    } else if (sdd_->IsDecision(f) && sdd_->vtree_node(f) == v) {
      for (const auto& [p, s] : sdd_->elements(f)) {
        if (s == sdd_->False()) continue;  // probability-zero region
        node.elements.push_back({Build(vt.left(v), p), Build(vt.right(v), s), 0.0});
      }
      TBC_CHECK(!node.elements.empty());
      for (auto& e : node.elements) {
        e.theta = 1.0 / static_cast<double>(node.elements.size());
      }
    } else {
      // f lives strictly inside one side of v: insert a pass-through node.
      const VtreeId vf = sdd_->vtree_node(f);
      if (vt.IsAncestorOrSelf(vt.left(v), vf)) {
        node.elements.push_back(
            {Build(vt.left(v), f), Build(vt.right(v), sdd_->True()), 1.0});
      } else {
        node.elements.push_back(
            {Build(vt.left(v), sdd_->True()), Build(vt.right(v), f), 1.0});
      }
    }
    node.element_counts.assign(node.elements.size(), 0.0);
  }
  nodes_.push_back(std::move(node));
  const PsddId id = static_cast<PsddId>(nodes_.size() - 1);
  build_memo_.Insert(key, id);
  return id;
}

void Psdd::RebuildArena() {
  const size_t n = nodes_.size();
  arena_.kind.resize(n);
  arena_.payload.resize(n);
  arena_.theta_true.resize(n);
  arena_.elem_begin.assign(n + 1, 0);
  size_t total = 0;
  for (const Node& node : nodes_) total += node.elements.size();
  arena_.elem_prime.clear();
  arena_.elem_sub.clear();
  arena_.elem_theta.clear();
  arena_.elem_prime.reserve(total);
  arena_.elem_sub.reserve(total);
  arena_.elem_theta.reserve(total);
  for (size_t i = 0; i < n; ++i) {
    const Node& node = nodes_[i];
    arena_.kind[i] = static_cast<uint8_t>(node.kind);
    arena_.payload[i] = node.kind == Kind::kTop
                            ? static_cast<uint32_t>(vtree().var(node.vtree))
                            : node.lit_code;
    arena_.theta_true[i] = node.theta_true;
    arena_.elem_begin[i] = static_cast<uint32_t>(arena_.elem_prime.size());
    for (const Element& el : node.elements) {
      arena_.elem_prime.push_back(el.prime);
      arena_.elem_sub.push_back(el.sub);
      arena_.elem_theta.push_back(el.theta);
    }
  }
  arena_.elem_begin[n] = static_cast<uint32_t>(arena_.elem_prime.size());
  TBC_COUNT("psdd.arena.rebuilds");
  // Histogram max doubles as the peak arena footprint across rebuilds.
  TBC_OBSERVE_VALUE("psdd.arena.bytes",
                    n * (sizeof(uint8_t) + sizeof(uint32_t) + sizeof(double)) +
                        (n + 1) * sizeof(uint32_t) +
                        total * (2 * sizeof(uint32_t) + sizeof(double)));
}

void Psdd::SyncArenaParameters() {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    arena_.theta_true[i] = nodes_[i].theta_true;
    uint32_t k = arena_.elem_begin[i];
    for (const Element& el : nodes_[i].elements) arena_.elem_theta[k++] = el.theta;
  }
}

size_t Psdd::Size() const {
  size_t size = 0;
  for (const Node& n : nodes_) size += n.elements.size();
  return size;
}

void Psdd::ValuePassInto(const PsddEvidence& e, std::vector<double>& value) const {
  TBC_COUNT("psdd.eval.value_passes");
  const size_t num = nodes_.size();
  value.resize(num);
  // Children precede parents by construction, so ascending id order is the
  // level schedule; the pass touches only the arena's contiguous arrays.
  for (size_t n = 0; n < num; ++n) {
    switch (static_cast<Kind>(arena_.kind[n])) {
      case Kind::kLiteral: {
        const Lit l = Lit::FromCode(arena_.payload[n]);
        const Obs o = l.var() < e.size() ? e[l.var()] : Obs::kUnknown;
        value[n] =
            (o == Obs::kUnknown || (o == Obs::kTrue) == l.positive()) ? 1.0 : 0.0;
        break;
      }
      case Kind::kTop: {
        const Var x = arena_.payload[n];
        const Obs o = x < e.size() ? e[x] : Obs::kUnknown;
        value[n] = o == Obs::kUnknown ? 1.0
                   : o == Obs::kTrue  ? arena_.theta_true[n]
                                      : 1.0 - arena_.theta_true[n];
        break;
      }
      case Kind::kDecision: {
        double sum = 0.0;
        for (uint32_t k = arena_.elem_begin[n]; k < arena_.elem_begin[n + 1]; ++k) {
          sum += arena_.elem_theta[k] * value[arena_.elem_prime[k]] *
                 value[arena_.elem_sub[k]];
        }
        value[n] = sum;
        break;
      }
    }
  }
}

std::vector<double> Psdd::ValuePass(const PsddEvidence& e) const {
  std::vector<double> value;
  ValuePassInto(e, value);
  return value;
}

double Psdd::Probability(const Assignment& x) const {
  PsddEvidence e(num_vars());
  for (Var v = 0; v < num_vars(); ++v) {
    e[v] = x[v] ? Obs::kTrue : Obs::kFalse;
  }
  return ProbabilityEvidence(e);
}

double Psdd::ProbabilityEvidence(const PsddEvidence& e) const {
  // Reuse one scratch buffer per thread across queries: ValuePassInto
  // writes every slot, so stale contents are harmless.
  static thread_local std::vector<double> value;
  ValuePassInto(e, value);
  return value[root_];
}

Result<std::vector<double>> Psdd::ProbabilityEvidenceBatch(
    const std::vector<PsddEvidence>& evidence, Guard& guard,
    ThreadPool* pool) const {
  TBC_RETURN_IF_ERROR(guard.Check());
  TBC_OBSERVE_VALUE("psdd.eval.batch_size", evidence.size());
  std::vector<double> out(evidence.size(), 0.0);
  const auto body = [&](size_t i) {
    static thread_local std::vector<double> value;
    ValuePassInto(evidence[i], value);
    out[i] = value[root_];
  };
  TBC_RETURN_IF_ERROR(ForRange(pool, guard, 0, evidence.size(), 1, body));
  TBC_RETURN_IF_ERROR(guard.Check());
  return out;
}

std::vector<double> Psdd::Marginals(const PsddEvidence& e, bool normalized) const {
  std::vector<double> value;
  ValuePassInto(e, value);
  std::vector<double> deriv(nodes_.size(), 0.0);
  deriv[root_] = 1.0;
  for (size_t n = nodes_.size(); n-- > 0;) {
    if (static_cast<Kind>(arena_.kind[n]) != Kind::kDecision || deriv[n] == 0.0) {
      continue;
    }
    for (uint32_t k = arena_.elem_begin[n]; k < arena_.elem_begin[n + 1]; ++k) {
      deriv[arena_.elem_prime[k]] +=
          deriv[n] * arena_.elem_theta[k] * value[arena_.elem_sub[k]];
      deriv[arena_.elem_sub[k]] +=
          deriv[n] * arena_.elem_theta[k] * value[arena_.elem_prime[k]];
    }
  }
  std::vector<double> marginal(num_vars(), 0.0);
  for (size_t n = 0; n < nodes_.size(); ++n) {
    const Kind kind = static_cast<Kind>(arena_.kind[n]);
    if (kind == Kind::kLiteral) {
      const Lit l = Lit::FromCode(arena_.payload[n]);
      const Obs o = l.var() < e.size() ? e[l.var()] : Obs::kUnknown;
      const bool allows_true = o != Obs::kFalse;
      if (l.positive() && allows_true) marginal[l.var()] += deriv[n];
    } else if (kind == Kind::kTop) {
      const Var x = arena_.payload[n];
      const Obs o = x < e.size() ? e[x] : Obs::kUnknown;
      if (o != Obs::kFalse) marginal[x] += deriv[n] * arena_.theta_true[n];
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
  // Max pass over the arena (same schedule as ValuePassInto).
  std::vector<double> best(nodes_.size(), 0.0);
  for (size_t n = 0; n < nodes_.size(); ++n) {
    switch (static_cast<Kind>(arena_.kind[n])) {
      case Kind::kLiteral: {
        const Lit l = Lit::FromCode(arena_.payload[n]);
        const Obs o = l.var() < e.size() ? e[l.var()] : Obs::kUnknown;
        best[n] =
            (o == Obs::kUnknown || (o == Obs::kTrue) == l.positive()) ? 1.0 : 0.0;
        break;
      }
      case Kind::kTop: {
        const Var x = arena_.payload[n];
        const Obs o = x < e.size() ? e[x] : Obs::kUnknown;
        const double t = arena_.theta_true[n];
        best[n] = o == Obs::kUnknown ? std::max(t, 1.0 - t)
                  : o == Obs::kTrue  ? t
                                     : 1.0 - t;
        break;
      }
      case Kind::kDecision: {
        double m = 0.0;
        for (uint32_t k = arena_.elem_begin[n]; k < arena_.elem_begin[n + 1]; ++k) {
          m = std::max(m, arena_.elem_theta[k] * best[arena_.elem_prime[k]] *
                              best[arena_.elem_sub[k]]);
        }
        best[n] = m;
        break;
      }
    }
  }

  Mpe result;
  result.probability = best[root_];
  result.assignment.assign(num_vars(), false);
  if (result.probability <= 0.0) return result;

  // Traceback. Ties break on the first maximizing element in storage
  // order, so the assignment is deterministic.
  std::vector<PsddId> stack = {root_};
  while (!stack.empty()) {
    const PsddId n = stack.back();
    stack.pop_back();
    switch (static_cast<Kind>(arena_.kind[n])) {
      case Kind::kLiteral: {
        const Lit l = Lit::FromCode(arena_.payload[n]);
        result.assignment[l.var()] = l.positive();
        break;
      }
      case Kind::kTop: {
        const Var x = arena_.payload[n];
        const Obs o = x < e.size() ? e[x] : Obs::kUnknown;
        result.assignment[x] = o == Obs::kUnknown
                                   ? arena_.theta_true[n] >= 0.5
                                   : o == Obs::kTrue;
        break;
      }
      case Kind::kDecision: {
        double m = -1.0;
        uint32_t chosen = arena_.elem_begin[n];
        for (uint32_t k = arena_.elem_begin[n]; k < arena_.elem_begin[n + 1]; ++k) {
          const double v = arena_.elem_theta[k] * best[arena_.elem_prime[k]] *
                           best[arena_.elem_sub[k]];
          if (v > m) {
            m = v;
            chosen = k;
          }
        }
        stack.push_back(arena_.elem_prime[chosen]);
        stack.push_back(arena_.elem_sub[chosen]);
        break;
      }
    }
  }
  return result;
}

Assignment Psdd::Sample(Rng& rng) const {
  Assignment x(num_vars(), false);
  std::vector<PsddId> stack = {root_};
  while (!stack.empty()) {
    const PsddId n = stack.back();
    stack.pop_back();
    const Node& node = nodes_[n];
    switch (node.kind) {
      case Kind::kLiteral: {
        const Lit l = Lit::FromCode(node.lit_code);
        x[l.var()] = l.positive();
        break;
      }
      case Kind::kTop:
        x[vtree().var(node.vtree)] = rng.Flip(node.theta_true);
        break;
      case Kind::kDecision: {
        double u = rng.Uniform();
        const Element* chosen = &node.elements.back();
        for (const Element& el : node.elements) {
          if (u < el.theta) {
            chosen = &el;
            break;
          }
          u -= el.theta;
        }
        stack.push_back(chosen->prime);
        stack.push_back(chosen->sub);
        break;
      }
    }
  }
  return x;
}

void Psdd::CountExample(PsddId root, const Assignment& x, double weight) {
  // Bottom-up support satisfaction for every node under this example.
  std::vector<int8_t> sat(nodes_.size(), 0);
  for (PsddId n = 0; n < nodes_.size(); ++n) {
    const Node& node = nodes_[n];
    switch (node.kind) {
      case Kind::kLiteral: {
        const Lit l = Lit::FromCode(node.lit_code);
        sat[n] = x[l.var()] == l.positive() ? 1 : 0;
        break;
      }
      case Kind::kTop:
        sat[n] = 1;
        break;
      case Kind::kDecision: {
        int8_t s = 0;
        for (const Element& el : node.elements) {
          if (sat[el.prime] && sat[el.sub]) s = 1;
        }
        sat[n] = s;
        break;
      }
    }
  }
  if (!sat[root]) return;  // example outside the base: contributes nothing

  // Descent along the active elements.
  std::vector<PsddId> stack = {root};
  while (!stack.empty()) {
    const PsddId n = stack.back();
    stack.pop_back();
    Node& node = nodes_[n];
    switch (node.kind) {
      case Kind::kLiteral:
        break;
      case Kind::kTop: {
        node.count_total += weight;
        if (x[vtree().var(node.vtree)]) node.count_true += weight;
        break;
      }
      case Kind::kDecision: {
        node.count_total += weight;
        for (size_t i = 0; i < node.elements.size(); ++i) {
          const Element& el = node.elements[i];
          if (sat[el.prime] && sat[el.sub]) {
            node.element_counts[i] += weight;
            stack.push_back(el.prime);
            stack.push_back(el.sub);
            break;  // exactly one element is active
          }
        }
        break;
      }
    }
  }
}

void Psdd::LearnParameters(const std::vector<Assignment>& data,
                           const std::vector<double>& weights, double laplace) {
  for (Node& n : nodes_) {
    n.count_true = 0.0;
    n.count_total = 0.0;
    std::fill(n.element_counts.begin(), n.element_counts.end(), 0.0);
  }
  for (size_t i = 0; i < data.size(); ++i) {
    CountExample(root_, data[i], weights.empty() ? 1.0 : weights[i]);
  }
  for (Node& n : nodes_) {
    if (n.kind == Kind::kTop) {
      const double denom = n.count_total + 2.0 * laplace;
      n.theta_true = denom > 0.0 ? (n.count_true + laplace) / denom : 0.5;
    } else if (n.kind == Kind::kDecision) {
      const double k = static_cast<double>(n.elements.size());
      const double denom = n.count_total + laplace * k;
      for (size_t i = 0; i < n.elements.size(); ++i) {
        n.elements[i].theta = denom > 0.0
                                  ? (n.element_counts[i] + laplace) / denom
                                  : 1.0 / k;
      }
    }
  }
  SyncArenaParameters();
#ifdef TBC_VALIDATE
  ValidatePsddOrDie(*this, "Psdd::LearnParameters");
#endif
}

double Psdd::LogLikelihood(const std::vector<Assignment>& data) const {
  return LogLikelihoodBounded(data, Guard::Unlimited()).value();
}

Result<double> Psdd::LogLikelihoodBounded(const std::vector<Assignment>& data,
                                          Guard& guard, ThreadPool* pool) const {
  TBC_RETURN_IF_ERROR(guard.Check());
  std::vector<double> logp(data.size(), 0.0);
  const auto body = [&](size_t i) {
    static thread_local std::vector<double> value;
    static thread_local PsddEvidence e;
    e.resize(num_vars());
    for (Var v = 0; v < num_vars(); ++v) {
      e[v] = data[i][v] ? Obs::kTrue : Obs::kFalse;
    }
    ValuePassInto(e, value);
    logp[i] = std::log(value[root_]);
  };
  TBC_RETURN_IF_ERROR(ForRange(pool, guard, 0, data.size(), 1, body));
  TBC_RETURN_IF_ERROR(guard.Check());
  // Serial index-order reduction: bit-identical across thread counts.
  double ll = 0.0;
  for (double lp : logp) ll += lp;
  return ll;
}

double Psdd::LearnParametersEm(const std::vector<PsddEvidence>& data,
                               const std::vector<double>& weights,
                               double laplace, size_t iterations) {
  double ll = 0.0;
  for (size_t iter = 0; iter < iterations; ++iter) {
    // E-step: expected activation counts under the current parameters.
    for (Node& n : nodes_) {
      n.count_true = 0.0;
      n.count_total = 0.0;
      std::fill(n.element_counts.begin(), n.element_counts.end(), 0.0);
    }
    ll = 0.0;
    for (size_t i = 0; i < data.size(); ++i) {
      const double w = weights.empty() ? 1.0 : weights[i];
      const std::vector<double> value = ValuePass(data[i]);
      const double pe = value[root_];
      TBC_CHECK_MSG(pe > 0.0, "EM example has zero probability");
      ll += w * std::log(pe);
      std::vector<double> deriv(nodes_.size(), 0.0);
      deriv[root_] = 1.0;
      for (PsddId n = nodes_.size(); n-- > 0;) {
        Node& node = nodes_[n];
        if (deriv[n] == 0.0) continue;
        if (node.kind == Kind::kDecision) {
          for (size_t k = 0; k < node.elements.size(); ++k) {
            const Element& el = node.elements[k];
            const double flow =
                deriv[n] * el.theta * value[el.prime] * value[el.sub];
            node.element_counts[k] += w * flow / pe;
            node.count_total += w * flow / pe;
            deriv[el.prime] += deriv[n] * el.theta * value[el.sub];
            deriv[el.sub] += deriv[n] * el.theta * value[el.prime];
          }
        } else if (node.kind == Kind::kTop) {
          const Var x = vtree().var(node.vtree);
          const Obs o = x < data[i].size() ? data[i][x] : Obs::kUnknown;
          const double p_true = o == Obs::kUnknown ? node.theta_true
                                : o == Obs::kTrue  ? node.theta_true
                                                   : 0.0;
          // Expected activations: context flow splits by the posterior of
          // X given the evidence and the context.
          const double context = deriv[n] * value[n] / pe;
          if (value[n] > 0.0) {
            node.count_total += w * context;
            node.count_true += w * context * (p_true / value[n]);
          }
        }
      }
    }
    // M-step: identical normalization to complete-data learning.
    for (Node& n : nodes_) {
      if (n.kind == Kind::kTop) {
        const double denom = n.count_total + 2.0 * laplace;
        n.theta_true = denom > 0.0 ? (n.count_true + laplace) / denom : 0.5;
      } else if (n.kind == Kind::kDecision) {
        const double k = static_cast<double>(n.elements.size());
        const double denom = n.count_total + laplace * k;
        for (size_t j = 0; j < n.elements.size(); ++j) {
          n.elements[j].theta =
              denom > 0.0 ? (n.element_counts[j] + laplace) / denom : 1.0 / k;
        }
      }
    }
    // The next E-step's value passes read the arena: sync per iteration.
    SyncArenaParameters();
  }
#ifdef TBC_VALIDATE
  ValidatePsddOrDie(*this, "Psdd::LearnParametersEm");
#endif
  return ll;
}

std::string Psdd::SerializeParameters() const {
  std::string out = "psdd-params " + std::to_string(nodes_.size()) + "\n";
  char buffer[64];
  for (PsddId n = 0; n < nodes_.size(); ++n) {
    const Node& node = nodes_[n];
    if (node.kind == Kind::kTop) {
      std::snprintf(buffer, sizeof(buffer), "P %u %.17g\n", n, node.theta_true);
      out += buffer;
    } else if (node.kind == Kind::kDecision) {
      out += "P " + std::to_string(n);
      for (const Element& el : node.elements) {
        std::snprintf(buffer, sizeof(buffer), " %.17g", el.theta);
        out += buffer;
      }
      out += "\n";
    }
  }
  return out;
}

Status Psdd::LoadParameters(const std::string& text) {
  size_t line_start = 0;
  bool saw_header = false;
  while (line_start < text.size()) {
    size_t line_end = text.find('\n', line_start);
    if (line_end == std::string::npos) line_end = text.size();
    const std::string line = text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (line.empty() || line[0] == 'c') continue;
    if (line.rfind("psdd-params", 0) == 0) {
      const size_t count = std::strtoull(line.c_str() + 11, nullptr, 10);
      if (count != nodes_.size()) return Status::Error("node count mismatch");
      saw_header = true;
      continue;
    }
    if (!saw_header) return Status::Error("missing psdd-params header");
    if (line[0] != 'P') return Status::Error("unknown line: " + line);
    char* cursor = nullptr;
    const PsddId n = static_cast<PsddId>(std::strtoul(line.c_str() + 1, &cursor, 10));
    if (n >= nodes_.size()) return Status::Error("node id out of range");
    Node& node = nodes_[n];
    std::vector<double> thetas;
    const char* scan = cursor;
    const char* line_last = line.c_str() + line.size();
    while (true) {
      while (scan < line_last &&
             std::isspace(static_cast<unsigned char>(*scan))) {
        ++scan;
      }
      if (scan == line_last) break;
      // from_chars, not strtod: theta parsing must not depend on the
      // run-time locale's radix character.
      double value = 0.0;
      const auto [next, ec] = std::from_chars(scan, line_last, value,
                                              std::chars_format::general);
      if (ec != std::errc() || next == scan) break;
      thetas.push_back(value);
      scan = next;
    }
    if (node.kind == Kind::kTop) {
      if (thetas.size() != 1 || thetas[0] < 0.0 || thetas[0] > 1.0) {
        return Status::Error("bad Bernoulli parameter");
      }
      node.theta_true = thetas[0];
    } else if (node.kind == Kind::kDecision) {
      if (thetas.size() != node.elements.size()) {
        return Status::Error("element count mismatch");
      }
      double total = 0.0;
      for (double t : thetas) {
        if (t < 0.0) return Status::Error("negative parameter");
        total += t;
      }
      if (std::abs(total - 1.0) > 1e-6) {
        return Status::Error("element parameters do not sum to 1");
      }
      for (size_t i = 0; i < thetas.size(); ++i) node.elements[i].theta = thetas[i];
    } else {
      return Status::Error("parameters on a literal node");
    }
  }
  if (!saw_header) return Status::Error("missing psdd-params header");
  SyncArenaParameters();
#ifdef TBC_VALIDATE
  ValidatePsddOrDie(*this, "Psdd::LoadParameters");
#endif
  return Status::Ok();
}

double Psdd::KlDivergence(const Psdd& other) const {
  TBC_CHECK_MSG(sdd_ == other.sdd_ && nodes_.size() == other.nodes_.size() &&
                    root_ == other.root_,
                "KL divergence requires identical PSDD structure");
  // Context probabilities under *this*: probability each node is reached
  // on a sample's root-to-leaves descent. Parents precede children in id
  // order is false — children precede parents — so iterate in reverse.
  std::vector<double> ctx(nodes_.size(), 0.0);
  ctx[root_] = 1.0;
  double kl = 0.0;
  for (PsddId n = nodes_.size(); n-- > 0;) {
    const Node& p = nodes_[n];
    const Node& q = other.nodes_[n];
    TBC_CHECK_MSG(p.kind == q.kind && p.vtree == q.vtree,
                  "KL divergence requires identical PSDD structure");
    if (ctx[n] == 0.0) continue;
    switch (p.kind) {
      case Kind::kLiteral:
        break;
      case Kind::kTop: {
        auto term = [](double a, double b) {
          return a > 0.0 ? a * std::log(a / b) : 0.0;
        };
        kl += ctx[n] * (term(p.theta_true, q.theta_true) +
                        term(1.0 - p.theta_true, 1.0 - q.theta_true));
        break;
      }
      case Kind::kDecision: {
        TBC_CHECK(p.elements.size() == q.elements.size());
        for (size_t i = 0; i < p.elements.size(); ++i) {
          const double tp = p.elements[i].theta;
          const double tq = q.elements[i].theta;
          TBC_CHECK(p.elements[i].prime == q.elements[i].prime &&
                    p.elements[i].sub == q.elements[i].sub);
          if (tp > 0.0) {
            kl += ctx[n] * tp * std::log(tp / tq);
            ctx[p.elements[i].prime] += ctx[n] * tp;
            ctx[p.elements[i].sub] += ctx[n] * tp;
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
  Psdd out(*sdd_, sdd_->True());  // seed structure; rebuilt below
  out.nodes_.clear();
  out.build_memo_.Clear();
  out.root_ = kInvalidPsdd;

  struct PairResult {
    PsddId node = kInvalidPsdd;
    double scale = 0.0;
  };
  FlatMap<uint64_t, PairResult> memo;
  memo.reserve(nodes_.size() + other.nodes_.size());
  std::function<PairResult(PsddId, PsddId)> mul = [&](PsddId a,
                                                      PsddId b) -> PairResult {
    const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
    if (const PairResult* hit = memo.Find(key)) return *hit;
    const Node& na = nodes_[a];
    const Node& nb = other.nodes_[b];
    TBC_CHECK(na.vtree == nb.vtree);
    PairResult r;
    Node node;
    node.vtree = na.vtree;
    if (na.kind == Kind::kLiteral && nb.kind == Kind::kLiteral) {
      if (na.lit_code == nb.lit_code) {
        node.kind = Kind::kLiteral;
        node.lit_code = na.lit_code;
        r.scale = 1.0;
      }  // complementary literals: scale stays 0 (empty product)
    } else if (na.kind == Kind::kLiteral || nb.kind == Kind::kLiteral) {
      const Node& lit_node = na.kind == Kind::kLiteral ? na : nb;
      const Node& top_node = na.kind == Kind::kLiteral ? nb : na;
      const Lit l = Lit::FromCode(lit_node.lit_code);
      r.scale = l.positive() ? top_node.theta_true : 1.0 - top_node.theta_true;
      node.kind = Kind::kLiteral;
      node.lit_code = lit_node.lit_code;
    } else if (na.kind == Kind::kTop && nb.kind == Kind::kTop) {
      const double r1 = na.theta_true * nb.theta_true;
      const double r0 = (1.0 - na.theta_true) * (1.0 - nb.theta_true);
      r.scale = r0 + r1;
      node.kind = Kind::kTop;
      node.theta_true = r.scale > 0.0 ? r1 / r.scale : 0.5;
    } else {
      TBC_CHECK(na.kind == Kind::kDecision && nb.kind == Kind::kDecision);
      node.kind = Kind::kDecision;
      for (const Element& ea : na.elements) {
        for (const Element& eb : nb.elements) {
          const PairResult p = mul(ea.prime, eb.prime);
          if (p.scale == 0.0 || p.node == kInvalidPsdd) continue;
          const PairResult s = mul(ea.sub, eb.sub);
          if (s.scale == 0.0 || s.node == kInvalidPsdd) continue;
          const double raw = ea.theta * eb.theta * p.scale * s.scale;
          if (raw == 0.0) continue;
          node.elements.push_back({p.node, s.node, raw});
          r.scale += raw;
        }
      }
      if (node.elements.empty()) {
        memo.Insert(key, r);
        return r;  // disjoint supports
      }
      for (Element& el : node.elements) el.theta /= r.scale;
      node.element_counts.assign(node.elements.size(), 0.0);
    }
    if (r.scale > 0.0) {
      out.nodes_.push_back(std::move(node));
      r.node = static_cast<PsddId>(out.nodes_.size() - 1);
    }
    memo.Insert(key, r);
    return r;
  };

  const PairResult root = mul(root_, other.root_);
  TBC_CHECK_MSG(root.scale > 0.0, "PSDD product has empty support");
  out.root_ = root.node;
  out.RebuildArena();
  if (normalization_constant != nullptr) *normalization_constant = root.scale;
#ifdef TBC_VALIDATE
  ValidatePsddOrDie(out, "Psdd::Multiply");
#endif
  return out;
}

}  // namespace tbc
