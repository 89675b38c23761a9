#include "compiler/ddnnf_compiler.h"

#include <utility>
#include <vector>

#include "base/check.h"
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

using compiler_internal::BcpOutcome;
using compiler_internal::CacheKeyInto;
using compiler_internal::Canonicalize;
using compiler_internal::ClauseRange;
using compiler_internal::ClauseSet;
using compiler_internal::ComponentCache;
using compiler_internal::ComponentOf;
using compiler_internal::ConditionClauses;
using compiler_internal::PickBranchVar;
using compiler_internal::Propagate;
using compiler_internal::SplitComponents;

// A compiled component: its circuit node, and (when tracing) the index of
// its CertComp record, which a cache hit re-references.
struct CachedComponent {
  NnfId node;
  uint32_t comp;
};

class Compilation {
 public:
  // `trace` (borrowed, nullable) collects the component records that the
  // CertBranch arguments below index into.
  Compilation(const DdnnfOptions& options, NnfManager& mgr, DdnnfStats& stats,
              Guard& guard, DdnnfTrace* trace)
      : options_(options),
        mgr_(mgr),
        stats_(stats),
        guard_(guard),
        trace_(trace) {}

  // Compiles `clauses` (consumed: propagation rewrites them in place) at
  // recursion depth `depth`. `branch` (non-null iff a trace is attached)
  // receives this subproblem's derivation: the BCP conflict, or the result
  // node plus the component records it conjoins.
  Result<NnfId> CompileClauses(ClauseSet& clauses, size_t depth,
                               CertBranch* branch) {
    // No Canonicalize here: BCP closure and the component partition are
    // insensitive to clause order and duplicates, and CompileComponent
    // canonicalizes before keying the cache, so the result is identical.
    Frame& frame = frames_.at(depth);
    if (Propagate(&clauses, &frame.implied) == BcpOutcome::kConflict) {
      if (branch != nullptr) branch->conflict = true;
      return mgr_.False();
    }
    std::vector<NnfId>& conjuncts = frame.extra;
    conjuncts.clear();
    for (Lit l : frame.implied) conjuncts.push_back(mgr_.Literal(l));
    if (!clauses.empty()) {
      const ClauseSet* groups = &clauses;
      if (options_.use_components) {
        groups = &SplitComponents(clauses, &frame.split, &frame.comp_ends);
        if (frame.comp_ends.size() > 1) {
          ++stats_.components_split;
          TBC_COUNT("ddnnf.components_split");
        }
      } else {
        frame.comp_ends.assign(1, static_cast<uint32_t>(clauses.size()));
      }
      for (size_t k = 0; k < frame.comp_ends.size(); ++k) {
        uint32_t comp_index = 0;
        TBC_ASSIGN_OR_RETURN(
            const NnfId sub,
            CompileComponent(ComponentOf(*groups, frame.comp_ends, k), depth,
                             branch != nullptr ? &comp_index : nullptr));
        if (branch != nullptr) branch->comps.push_back(comp_index);
        conjuncts.push_back(sub);
      }
    }
    const NnfId result = mgr_.And(conjuncts);
    if (branch != nullptr) branch->node = result;
    return result;
  }

 private:
  using Frame = compiler_internal::Frame<std::vector<NnfId>>;  // conjuncts

  // Compiles a single component (no unit clauses after propagation). When
  // tracing, `comp_out` receives the index of this component's CertComp
  // record (a cache hit re-references the original record).
  Result<NnfId> CompileComponent(ClauseRange component, size_t depth,
                                 uint32_t* comp_out) {
    Frame& frame = frames_.at(depth);
    ClauseSet& clauses = frame.canonical;
    Canonicalize(component, &frame.order, &clauses);
    uint64_t fingerprint = 0;
    if (options_.use_cache) {
      fingerprint = CacheKeyInto(clauses, &frame.key);
      if (const CachedComponent* hit = cache_.Find(frame.key, fingerprint)) {
        ++stats_.cache_hits;
        TBC_COUNT("ddnnf.cache_hits");
        if (comp_out != nullptr) *comp_out = hit->comp;
        return hit->node;
      }
      TBC_COUNT("ddnnf.cache_misses");
    }
    ++stats_.decisions;
    TBC_COUNT("ddnnf.decisions");
    // One decision = one created decision node (plus the two literal
    // nodes): charge both budgets here, at the head of the exponential
    // recursion, so a trip surfaces within one decision's work.
    TBC_RETURN_IF_ERROR(guard_.ChargeDecision());
    TBC_RETURN_IF_ERROR(guard_.ChargeNodes(1));
    const Var v = PickBranchVar(clauses);
    TBC_DCHECK(v != kInvalidVar);
    CertComp comp;
    comp.decision = v;
    // Both branches are conditioned into the same per-depth buffer: the
    // high branch is fully compiled before the low one is built.
    ConditionClauses(clauses, Pos(v), &frame.branch);
    TBC_ASSIGN_OR_RETURN(
        const NnfId hi,
        CompileClauses(frame.branch, depth + 1,
                       comp_out != nullptr ? &comp.hi : nullptr));
    ConditionClauses(clauses, Neg(v), &frame.branch);
    TBC_ASSIGN_OR_RETURN(
        const NnfId lo,
        CompileClauses(frame.branch, depth + 1,
                       comp_out != nullptr ? &comp.lo : nullptr));
    const NnfId result = mgr_.Decision(v, hi, lo);
    CachedComponent cached{result, 0};
    if (comp_out != nullptr) {
      comp.node = result;
      cached.comp = static_cast<uint32_t>(trace_->comps.size());
      *comp_out = cached.comp;
      trace_->comps.push_back(std::move(comp));
    }
    if (options_.use_cache) cache_.Insert(frame.key, fingerprint, cached);
    return result;
  }

  const DdnnfOptions& options_;
  NnfManager& mgr_;
  DdnnfStats& stats_;
  Guard& guard_;
  DdnnfTrace* const trace_;
  compiler_internal::FrameStack<std::vector<NnfId>> frames_;
  ComponentCache<CachedComponent> cache_;
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
  ClauseSet clauses;
  compiler_internal::LoadCnf(cnf, &clauses);
#ifdef TBC_CERTIFY
  // Certify-every-compile mode: record a trace even when the caller did not
  // attach one, so the checker replays the search instead of re-solving.
  DdnnfTrace certify_trace;
  DdnnfTrace* trace = trace_ != nullptr ? trace_ : &certify_trace;
#else
  DdnnfTrace* trace = trace_;
#endif
  if (trace != nullptr) trace->Clear();
  Compilation run(options_, mgr, stats_, guard, trace);
  Result<NnfId> root = run.CompileClauses(
      clauses, 0, trace != nullptr ? &trace->top : nullptr);
#ifdef TBC_VALIDATE
  if (root.ok()) {
    ValidateNnfOrDie(mgr, *root, NnfDialect::kDecisionDnnf, cnf.num_vars(),
                     "DdnnfCompiler::CompileBounded");
  }
#endif
#ifdef TBC_CERTIFY
  if (root.ok()) {
    CertifyDdnnfOrDie(cnf, mgr, *root, trace,
                      "DdnnfCompiler::CompileBounded");
  }
#endif
  return root;
}

}  // namespace tbc
