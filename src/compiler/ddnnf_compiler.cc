#include "compiler/ddnnf_compiler.h"

#include <utility>
#include <vector>

#include "base/observability.h"
#include "compiler/subproblem.h"

#ifdef TBC_VALIDATE
#include "analysis/validate.h"
#endif
#ifdef TBC_CERTIFY
#include "certify/emit.h"
#endif

namespace tbc {

namespace {

// The circuit algebra: a subproblem evaluates to its Decision-DNNF node. A
// decision becomes the or-gate (x ∧ hi) ∨ (¬x ∧ lo), a subproblem the
// decomposable and-gate over its implied literals and components. With a
// trace attached it also records the search as the CertBranch/CertComp
// records the certificate checker replays.
class CircuitAlgebra {
 public:
  // A node and, when tracing, the index of the CertComp record of the
  // component it compiles, which a cache hit re-references.
  struct Value {
    NnfId node;
    uint32_t comp;
  };
  using Product = size_t;  // where the conjunction starts in conjuncts_
  using Sink = CertBranch*;  // nullptr when not tracing
  using Decision = CertComp;
  static constexpr compiler_internal::SearchCounters kCounters = {
      "ddnnf.decisions", "ddnnf.cache_hits", "ddnnf.cache_misses",
      "ddnnf.components_split"};

  // `trace` (borrowed, nullable) collects the component records that the
  // CertBranch::comps below index into.
  CircuitAlgebra(NnfManager& mgr, DdnnfTrace* trace)
      : mgr_(mgr), trace_(trace) {}

  Sink Top() const { return trace_ != nullptr ? &trace_->top : nullptr; }
  Value Zero(Sink sink) const {
    if (sink != nullptr) sink->conflict = true;
    return {mgr_.False(), 0};
  }
  Product One() const { return conjuncts_.size(); }
  void Implied(Product, Lit l) { conjuncts_.push_back(mgr_.Literal(l)); }
  // Free variables stay out of the circuit: the queries apply gap factors.
  static void Free(Product, Var) {}
  void Times(Product, const Value& sub, Sink sink) {
    if (sink != nullptr) sink->comps.push_back(sub.comp);
    conjuncts_.push_back(sub.node);
  }
  Value Finish(Product first, Sink sink) {
    const NnfId node = mgr_.And(Span<const NnfId>(conjuncts_.data() + first,
                                                  conjuncts_.size() - first));
    conjuncts_.resize(first);
    if (sink != nullptr) sink->node = node;
    return {node, 0};
  }
  Sink Hi(Decision& d) const { return trace_ != nullptr ? &d.hi : nullptr; }
  Sink Lo(Decision& d) const { return trace_ != nullptr ? &d.lo : nullptr; }
  Value Decide(Decision& d, Var v, const Value& hi, const Value& lo) {
    const NnfId node = mgr_.Decision(v, hi.node, lo.node);
    if (trace_ == nullptr) return {node, 0};
    d.decision = v;
    d.node = node;
    trace_->comps.push_back(std::move(d));
    return {node, static_cast<uint32_t>(trace_->comps.size() - 1)};
  }

 private:
  NnfManager& mgr_;
  DdnnfTrace* const trace_;
  // The children of every open conjunction, innermost last.
  std::vector<NnfId> conjuncts_;
};

}  // namespace

NnfId DdnnfCompiler::Compile(const Cnf& cnf, NnfManager& mgr) {
  // The unlimited guard never trips, so the bounded path cannot refuse.
  return CompileBounded(cnf, mgr, Guard::Unlimited()).value();
}

Result<NnfId> DdnnfCompiler::CompileBounded(const Cnf& cnf, NnfManager& mgr,
                                            Guard& guard) {
  TBC_SPAN("ddnnf.compile");
  stats_ = DdnnfStats();
  TBC_RETURN_IF_ERROR(guard.Check());
#ifdef TBC_CERTIFY
  // Certify-every-compile mode: record a trace even when the caller did not
  // attach one, so the checker replays the search instead of re-solving.
  DdnnfTrace certify_trace;
  DdnnfTrace* trace = trace_ != nullptr ? trace_ : &certify_trace;
#else
  DdnnfTrace* trace = trace_;
#endif
  if (trace != nullptr) trace->Clear();
  CircuitAlgebra circuit(mgr, trace);
  TBC_ASSIGN_OR_RETURN(
      const CircuitAlgebra::Value root,
      compiler_internal::Dpll(circuit, options_, stats_, guard).Run(cnf));
#ifdef TBC_VALIDATE
  ValidateNnfOrDie(mgr, root.node, NnfDialect::kDecisionDnnf, cnf.num_vars(),
                   "DdnnfCompiler::CompileBounded");
#endif
#ifdef TBC_CERTIFY
  CertifyDdnnfOrDie(cnf, mgr, root.node, trace,
                    "DdnnfCompiler::CompileBounded");
#endif
  return root.node;
}

}  // namespace tbc
