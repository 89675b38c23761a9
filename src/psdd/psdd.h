#ifndef TBC_PSDD_PSDD_H_
#define TBC_PSDD_PSDD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/flat_table.h"
#include "base/guard.h"
#include "base/random.h"
#include "base/result.h"
#include "base/span.h"
#include "base/strings.h"
#include "sdd/sdd.h"

namespace tbc {

/// Node index within a Psdd.
using PsddId = uint32_t;
constexpr PsddId kInvalidPsdd = static_cast<PsddId>(-1);

/// Evidence over variables: kTrue/kFalse observed, kUnknown unobserved.
enum class Obs : int8_t { kFalse = 0, kTrue = 1, kUnknown = -1 };
using PsddEvidence = std::vector<Obs>;

/// Probabilistic Sentential Decision Diagram [Kisa et al. 2014]
/// (paper §4, Figs 13-14).
///
/// A PSDD induces a probability distribution over the satisfying inputs of
/// an SDD (its *base*): each or-gate input carries a local probability, the
/// local distributions are independent, and together they are guaranteed to
/// form a normalized distribution over the base's models (Fig 13). The
/// structure here is the SDD *normalized* for its vtree: every variable of
/// a node's vtree appears in the node's subcircuit, with pass-through nodes
/// inserted where the (trimmed) SDD skipped vtree nodes, and a ⊤-leaf over
/// variable X carrying the Bernoulli parameter Pr(X=1).
///
/// Supported, all linear in PSDD size: probability of a complete input,
/// probability of evidence (MAR), all-variable marginals, MPE, sampling,
/// maximum-likelihood learning from complete data (paper Fig 15), and
/// PSDD multiplication [Shen, Choi & Darwiche 2016].
///
/// Nodes live in one flat store (per-node arrays plus one CSR block of
/// elements) that every pass reads and that learning, loading and Multiply
/// write in place. The value, max and support passes share one ascending
/// driver; MPE's traceback, sampling and learning share one descent. The
/// passes stay apart from the d-DNNF kernels of nnf/queries.h because θ
/// sits on the elements, which those kernels' hot loop would have to
/// branch on.
class Psdd {
 public:
  /// Builds the PSDD structure for the SDD `base` (must not be ⊥), with
  /// uniform parameters at every node.
  Psdd(SddManager& sdd, SddId base);

  const Vtree& vtree() const { return sdd_->vtree(); }
  size_t num_vars() const { return sdd_->num_vars(); }
  PsddId root() const { return root_; }

  /// PSDD size (number of elements over decision nodes) and node count.
  size_t Size() const;
  size_t num_nodes() const { return kind_.size(); }

  /// Pr(x) of a complete input; 0 for inputs outside the base (Fig 14).
  double Probability(const Assignment& x) const;

  /// Pr(e) of partial evidence (MAR query; linear time).
  double ProbabilityEvidence(const PsddEvidence& e) const;

  /// Marginals Pr(X=1, e) for every variable X, in one up+down pass;
  /// normalized by Pr(e) when `normalized`.
  std::vector<double> Marginals(const PsddEvidence& e, bool normalized) const;

  /// MPE completing the evidence: argmax_x Pr(x, e) with its probability.
  struct Mpe {
    double probability = 0.0;
    Assignment assignment;
  };
  Mpe MostProbable(const PsddEvidence& e) const;

  /// Draws a sample from the distribution.
  Assignment Sample(Rng& rng) const;

  /// Maximum-likelihood parameters from complete data [Kisa et al. 2014]:
  /// one descent per example accumulating activation counts, then
  /// normalize; `laplace` is the add-α pseudo-count (0 = pure ML).
  /// `weights[i]` repeats data[i] that many times (empty = all 1).
  void LearnParameters(const std::vector<Assignment>& data,
                       const std::vector<double>& weights, double laplace);

  /// Log-likelihood of complete data under current parameters.
  double LogLikelihood(const std::vector<Assignment>& data) const;

  /// Guarded log-likelihood: the guard is polled before each instance, and
  /// the per-instance log-probabilities are summed in index order.
  Result<double> LogLikelihoodBounded(const std::vector<Assignment>& data,
                                      Guard& guard) const;

  /// EM parameter learning from *incomplete* data (paper §4.1; [Choi, Van
  /// den Broeck & Darwiche 2015] extends Fig 15's learning to incomplete
  /// examples). Each E-step computes expected element activations with the
  /// same up+down differential pass as Marginals(); the M-step normalizes.
  /// On complete data one iteration reproduces LearnParameters exactly.
  /// Returns the final weighted log-likelihood; never decreases per
  /// iteration (the EM guarantee, asserted in tests).
  double LearnParametersEm(const std::vector<PsddEvidence>& data,
                           const std::vector<double>& weights, double laplace,
                           size_t iterations);

  /// Serializes all parameters, one line per parameterized node in
  /// structural (id) order — two PSDDs built from the same base on the
  /// same manager can exchange parameters (e.g. persisting a learned
  /// model). Format: "P <node_id> <theta...>".
  std::string SerializeParameters() const;
  /// Loads parameters written by SerializeParameters: a "psdd-params
  /// <num_nodes>" header, then ReadPsddParamLine's lines. Refuses, with a
  /// line-numbered kInvalidInput, malformed text, a structural mismatch or
  /// a non-distribution, and then writes no parameter at all.
  Status LoadParameters(const std::string& text);

  /// Exact KL divergence KL(this || other) for two PSDDs with the *same
  /// structure* (both built from the same base on the same manager; only
  /// parameters differ). Decomposes into per-node local divergences
  /// weighted by this-distribution context probabilities — linear time,
  /// no enumeration. Aborts on structural mismatch.
  double KlDivergence(const Psdd& other) const;

  /// Product distribution Pr(x) ∝ this(x) · other(x) [Shen et al. 2016].
  /// Both PSDDs must share the same manager/vtree. Returns the new PSDD and
  /// writes the normalization constant Σ_x this(x)·other(x) if requested.
  Psdd Multiply(const Psdd& other, double* normalization_constant) const;

  // --- structure access (tests, serialization, conditional PSDDs) ---
  enum class Kind : uint8_t { kLiteral, kTop, kDecision };
  Kind kind(PsddId n) const { return kind_[n]; }
  /// The literal of a literal node.
  Lit literal(PsddId n) const { return Lit::FromCode(payload_[n]); }
  /// Bernoulli Pr(X=1) of a ⊤-leaf.
  double theta_true(PsddId n) const { return theta_true_[n]; }
  VtreeId vtree_node(PsddId n) const { return vtree_[n]; }
  struct Element {
    PsddId prime;
    PsddId sub;
    double theta;
  };
  Span<const Element> elements(PsddId n) const {
    return Span<const Element>(elems_.data() + elem_begin_[n],
                               elem_begin_[n + 1] - elem_begin_[n]);
  }

 private:
  // An empty store, for Multiply to fill.
  explicit Psdd(SddManager* sdd) : sdd_(sdd) {}

  // Builds the normalized structure for SDD node `f` at vtree node `v`.
  PsddId Build(VtreeId v, SddId f);
  // Appends a node over already-stored children and returns its id.
  // `lit_code` is read for literal nodes only.
  PsddId AddNode(Kind kind, VtreeId v, uint32_t lit_code, double theta_true,
                 Span<const Element> elements);

  // The one ascending pass (value, max and support): value[n] is leaf(n)
  // for a literal or ⊤-leaf, and for a decision node the fold from `zero`
  // of add(acc, theta, value[prime], value[sub]) over its elements in
  // storage order. Writes every slot; reads only the store.
  template <typename T, typename Leaf, typename Add>
  void Ascend(T zero, Leaf&& leaf, Add&& add, std::vector<T>& value) const;
  // The one descent (MPE, sampling, learning): from the root, follows
  // element choose(n) of each decision node n. A literal on the path fixes
  // its variable, a ⊤-leaf n sets its variable to top_value(n), and
  // variables off the path stay false.
  template <typename Choose, typename TopValue>
  Assignment Descend(Choose&& choose, TopValue&& top_value) const;

  // value[n] = Pr_n(e restricted to n's vtree variables).
  void ValuePass(const PsddEvidence& e, std::vector<double>& value) const;
  // deriv[n] = ∂Pr(e)/∂value[n] for a value pass's `value`.
  void DerivativePass(const std::vector<double>& value,
                      std::vector<double>& deriv) const;

  // Learning: zeroes the counts, adds one weighted complete example's
  // activations, and sets every parameter from the counts.
  void ResetCounts();
  void CountExample(const Assignment& x, double weight);
  void MaximizeParameters(double laplace);

  SddManager* sdd_;
  // The node store. Ids are topological (children precede parents), so an
  // ascending sweep is the level schedule. Elements of all decision nodes
  // sit in one CSR block: node n owns elems_[elem_begin_[n] ..
  // elem_begin_[n+1]).
  std::vector<Kind> kind_;
  std::vector<VtreeId> vtree_;
  std::vector<uint32_t> payload_;   // lit code (kLiteral) / variable (kTop)
  std::vector<double> theta_true_;  // kTop
  std::vector<uint32_t> elem_begin_ = {0};
  std::vector<Element> elems_;
  // Learning counts: activations per node (and true ones per ⊤-leaf) and
  // per element.
  std::vector<double> count_true_;
  std::vector<double> count_total_;
  std::vector<double> elem_count_;
  PsddId root_ = kInvalidPsdd;
  // Memo for Build: key (vtree, sdd node).
  FlatMap<uint64_t, PsddId> build_memo_;
};

/// One parameter line, "P <node> <θ...>": SerializeParameters writes them,
/// and a .psdd file carries them after its SDD body.
struct PsddParamLine {
  uint64_t node = 0;
  std::vector<double> thetas;
};

/// The one reader of a parameter line: "P", a node id and at least one θ,
/// each a whole token (ParseUint64, ParseDouble: locale-free, no trailing
/// junk). Sets out->node as soon as the id reads, so a caller can name the
/// node of a line whose θ does not. kInvalidInput otherwise. Inline, so
/// the analyzers that validation builds link into tbc_psdd need no call
/// back into it.
inline Status ReadPsddParamLine(std::string_view line, PsddParamLine* out) {
  const std::vector<std::string> tok = SplitWhitespace(line);
  uint64_t node = 0;
  if (tok.size() < 3 || tok[0] != "P" || !ParseUint64(tok[1], &node)) {
    return Status::InvalidInput("bad parameter line: " + std::string(line));
  }
  out->node = node;
  out->thetas.resize(tok.size() - 2);
  for (size_t i = 2; i < tok.size(); ++i) {
    if (!ParseDouble(tok[i], &out->thetas[i - 2])) {
      return Status::InvalidInput("unreadable parameter: " + tok[i]);
    }
  }
  return Status::Ok();
}

}  // namespace tbc

#endif  // TBC_PSDD_PSDD_H_
